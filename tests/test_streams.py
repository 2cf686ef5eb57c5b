import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datamoll import streams
from datamoll.streams import derive_seed, row_keys, stream

# Word boundaries of NumPy's uint32 key coercion: 0 is one zero word, 2**32 - 1
# the largest one-word value, 2**32 and 2**64 - 1 two words, 2**100 four.
VALUES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100)
KEYS = st.lists(st.sampled_from(VALUES), min_size=1, max_size=5).map(tuple)


def _numpy_stream(key: tuple) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _numpy_child_seed(key: tuple) -> int:
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def _assert_keyed_as_numpy_keys(key: tuple) -> None:
    assert np.array_equal(stream(*key).random(8), _numpy_stream(key).random(8))
    assert derive_seed(*key) == _numpy_child_seed(key)


@settings(max_examples=300, deadline=None)
@given(key=KEYS)
def test_a_key_draws_what_numpy_draws_from_the_same_tuple(key):
    _assert_keyed_as_numpy_keys(key)


@pytest.mark.parametrize(
    "length, zero_at", [(length, i) for length in range(1, 6) for i in range(length)]
)
def test_a_zero_word_in_any_position(length, zero_at):
    key = tuple(0 if i == zero_at else VALUES[1 + i] for i in range(length))
    _assert_keyed_as_numpy_keys(key)


def test_numpy_integers_key_as_python_integers():
    assert derive_seed(np.uint64(2**64 - 1), np.int64(3)) == derive_seed(2**64 - 1, 3)
    assert np.array_equal(stream(np.uint64(2**63), np.uint32(7)).random(4), stream(2**63, 7).random(4))


@pytest.mark.parametrize("key", [(-1,), (1, -2), (2**64, 0, -(2**40))])
def test_negative_key_values_are_value_errors(key):
    with pytest.raises(ValueError):
        stream(*key)
    with pytest.raises(ValueError):
        derive_seed(*key)


@pytest.mark.parametrize("key", [(1.5,), (2.9,), (1, 2.0), (np.float64(3.0),), (4, "5")])
def test_key_values_that_are_not_integers_are_type_errors(key):
    with pytest.raises(TypeError):
        stream(*key)
    with pytest.raises(TypeError):
        derive_seed(*key)


def test_a_trailing_zero_word_names_the_same_stream():
    # NumPy's SeedSequence ignores trailing zero words in a key of up to four
    # words, as the streams module documents.
    assert np.array_equal(stream(5, 1, 0).random(8), stream(5, 1).random(8))
    assert derive_seed(5, 1, 0) == derive_seed(5, 1)
    assert derive_seed(5, 2) != derive_seed(5, 1)


@pytest.mark.parametrize(
    "key",
    [
        # A key of five words or more mixes each word beyond the pool into
        # every pool word, so there a trailing zero word changes the key.
        (2**64 + 9, 3, 1),
        (2**100, 2, 1),
        (2**64, 0, 0),
        # The trainer's per-batch key (seed, tag, epoch, batch, rep) at its
        # first batch: five words, the last three zero.
        (2**63 + 5, 1, 0, 0, 0),
    ],
    ids=["5-words", "7-words", "row-0-tag-0-5-words", "trainer-first-batch"],
)
def test_keys_beyond_the_pool(key):
    _assert_keyed_as_numpy_keys(key)
    assert derive_seed(*key) != derive_seed(*key[:-1])


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32, np.int32, np.int64, np.uint64])
def test_scalar_values_of_any_integer_dtype_key_as_python_integers(dtype):
    key = (dtype(9), dtype(3), dtype(2))
    assert derive_seed(*key) == derive_seed(9, 3, 2)
    assert type(derive_seed(*key)) is int
    assert np.array_equal(stream(*key).random(4), stream(9, 3, 2).random(4))


# Row-key seeds: the seeds where a SeedSequence key changes its uint32 word
# count (one zero word, one word, two words), and any other u64.
ROW_SEEDS = st.sampled_from(VALUES[:5]) | st.integers(0, 2**64 - 1)


def _numpy_row_stream(seed: int, row: int) -> np.random.Generator:
    # NumPy's documented Philox key: two uint64 words, word 0 first.  A plain
    # list would pass through float64 at seeds of 2**63 and above.
    return np.random.Generator(np.random.Philox(key=np.array([seed, row], dtype=np.uint64)))


@settings(max_examples=300, deadline=None)
@given(seed=ROW_SEEDS, count=st.integers(0, 6))
def test_each_row_key_is_numpys_philox_key_of_seed_and_row(seed, count):
    keys = row_keys(seed, count)
    assert len(keys) == count
    for i, key in enumerate(keys):
        assert key.philox_key.tolist() == [seed, i]
        assert np.array_equal(stream(key).random(8), _numpy_row_stream(seed, i).random(8))


# 2**63 is the first seed whose word 0 has its top bit set: past int64, and
# where a plain list key would pass through float64.
@pytest.mark.parametrize(
    "seed", [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1], ids=["0", "2**32-1", "2**32", "2**63", "2**64-1"]
)
def test_rows_at_word_layout_boundaries(seed):
    keys = row_keys(seed, 3)
    assert len(keys) == 3
    for i, key in enumerate(keys):
        rng, numpy_rng = stream(key), _numpy_row_stream(seed, i)
        state, numpy_state = rng.bit_generator.state["state"], numpy_rng.bit_generator.state["state"]
        assert np.array_equal(state["key"], numpy_state["key"])
        assert np.array_equal(state["counter"], np.zeros(4, dtype=np.uint64))
        assert np.array_equal(rng.standard_normal(16), numpy_rng.standard_normal(16))


def test_no_rows_give_no_keys():
    assert row_keys(3, 0) == []


@pytest.mark.parametrize(
    "seed, count, message",
    [(2**64, 3, r"\[0, 2\*\*64\)"), (-1, 3, r"\[0, 2\*\*64\)"), (5, -1, "negative")],
    ids=["seed-2**64", "seed--1", "count--1"],
)
def test_row_keys_out_of_range_are_value_errors(seed, count, message):
    # A row is a whole uint64 word, so no count that can be allocated wraps it.
    with pytest.raises(ValueError, match=message):
        row_keys(seed, count)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32, np.int32, np.int64, np.uint64])
def test_any_integer_dtype_keys_as_python_integers(dtype):
    expected = [key.philox_key for key in row_keys(9, 3)]
    assert np.array_equal([key.philox_key for key in row_keys(dtype(9), dtype(3))], expected)


@pytest.mark.parametrize("seed, count", [(1.0, 3), (np.float64(2.0), 3), (5, 2.0)])
def test_row_keys_of_floats_are_type_errors(seed, count):
    with pytest.raises(TypeError):
        row_keys(seed, count)


@pytest.mark.parametrize("key", [(np.arange(2),), (5, np.arange(3), 0), (5, np.array([1]))])
def test_array_key_values_are_type_errors(key):
    with pytest.raises(TypeError):
        stream(*key)
    with pytest.raises(TypeError):
        derive_seed(*key)


@pytest.mark.parametrize("n_words, dtype", [(1, np.uint64), (3, np.uint64), (2, np.uint32), (4, np.uint32)])
def test_a_key_answers_only_the_request_philox_makes(n_words, dtype):
    key = row_keys(5, 2)[1]
    assert np.array_equal(key.generate_state(2, np.uint64), np.array([5, 1], dtype=np.uint64))
    with pytest.raises(ValueError):
        key.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        key.generate_state(2)


def test_stream_takes_integers_or_one_key():
    with pytest.raises(TypeError):
        stream(5, np.arange(2))
    with pytest.raises(TypeError):
        stream(row_keys(5, 1)[0], 1)


def test_a_key_opens_the_same_stream_twice():
    # A Key hands Philox its words and the shared zero counter uncopied;
    # neither may change by opening a stream.
    key = row_keys(2**63 + 1, 4)[3]
    first, second = stream(key).standard_normal(16), stream(key).standard_normal(16)
    assert np.array_equal(first, second)
    assert key.philox_key.tolist() == [2**63 + 1, 3]
    assert not key.philox_key.flags.writeable
    assert streams._ZERO_COUNTER.tolist() == [0, 0, 0, 0]
    assert streams._ZERO_COUNTER.dtype == np.uint64
    assert not streams._ZERO_COUNTER.flags.writeable
