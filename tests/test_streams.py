import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datamoll.streams import derive_seed, keys, stream

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


# Array values are uint64: every value of VALUES but 2**100, and any other.
ARRAY_VALUES = st.sampled_from(VALUES[:-1]) | st.integers(0, 2**64 - 1)


@st.composite
def _array_keys(draw) -> list:
    """1 to 5 key values, at least one an (N,) uint64 array."""
    n = draw(st.integers(1, 6))
    array = st.lists(ARRAY_VALUES, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.uint64))
    values = draw(st.lists(st.sampled_from(VALUES) | array, min_size=1, max_size=5))
    if not any(isinstance(v, np.ndarray) for v in values):
        values[draw(st.integers(0, len(values) - 1))] = draw(array)
    return values


def _rows(values: list) -> list[tuple]:
    n = next(len(v) for v in values if isinstance(v, np.ndarray))
    return [tuple(int(v[i]) if isinstance(v, np.ndarray) else v for v in values) for i in range(n)]


def _assert_rows_keyed_as_numpy_keys(values: list) -> None:
    rows = _rows(values)
    row_keys = keys(*values)
    child_seeds = derive_seed(*values)
    assert len(row_keys) == len(child_seeds) == len(rows)
    assert child_seeds.dtype == np.uint64
    for row, key, child in zip(rows, row_keys, child_seeds):
        numpy_key = np.random.SeedSequence(row)
        assert np.array_equal(key.pool, numpy_key.pool)
        for n_words, dtype in [(2, np.uint64), (1, np.uint64), (4, np.uint32), (5, np.uint64), (9, np.uint32)]:
            assert np.array_equal(key.generate_state(n_words, dtype), numpy_key.generate_state(n_words, dtype))
        assert int(child) == _numpy_child_seed(row)
    assert np.array_equal(stream(row_keys[-1]).random(8), _numpy_stream(rows[-1]).random(8))
    assert np.array_equal(stream(row_keys[0]).random(8), stream(*rows[0]).random(8))


@settings(max_examples=300, deadline=None)
@given(values=_array_keys())
def test_each_row_of_an_array_key_draws_what_numpy_draws_from_the_row(values):
    _assert_rows_keyed_as_numpy_keys(values)


@pytest.mark.parametrize(
    "values",
    [
        # Rows of 3 and 4 words: zero padding to the pool is exact.
        [7, np.array([1, 2**32, 2**32 - 1, 2**40, 0], dtype=np.uint64), 3],
        # Rows of 5 and 6 words: beyond the pool each length is hashed apart.
        [2**64, np.array([5, 2**33, 0, 2**64 - 1], dtype=np.uint64), 0],
        [np.array([2**32 - 1, 2**32, 1, 2**64 - 1], dtype=np.uint64), 2**100, 6],
        # A seed of 2**64 or more with a row and a tag is 5 words or more.
        [2**64 + 9, np.arange(4), 1],
        [2**100, np.arange(3), np.array([2, 0, 1])],
        # Row 0 with tag 0 ends in trailing zero words.
        [5, np.arange(3), 0],
        [2**64 - 1, np.arange(3), 0],
        [2**64, np.arange(3), 0],
        [0, np.array([0]), 0, 0],
    ],
    ids=["3-4-words", "5-6-words", "2-3-words-then-4", "5-words", "7-words", "row-0-tag-0",
         "row-0-tag-0-4-words", "row-0-tag-0-5-words", "all-zero"],
)
def test_rows_at_word_layout_boundaries(values):
    _assert_rows_keyed_as_numpy_keys(values)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32, np.int32, np.int64, np.uint64])
def test_any_integer_dtype_keys_as_python_integers(dtype):
    values = np.array([0, 3, 100], dtype=dtype)
    assert np.array_equal(derive_seed(9, values, 2), [derive_seed(9, int(v), 2) for v in values])


def test_an_empty_array_gives_no_rows():
    assert keys(3, np.arange(0)) == []
    assert derive_seed(3, np.arange(0)).shape == (0,)


@pytest.mark.parametrize(
    "values",
    [[np.array([1, -2])], [5, np.array([0, 3, -(2**40)], dtype=np.int64), 1]],
)
def test_negative_array_values_are_value_errors(values):
    with pytest.raises(ValueError):
        keys(*values)
    with pytest.raises(ValueError):
        derive_seed(*values)


@pytest.mark.parametrize(
    "values",
    [
        [np.array([1.0, 2.0])],
        [5, np.array([1.5]), 1],
        [np.array([True, False])],
        [np.array([1, 2], dtype=object)],
        [np.array(["1", "2"])],
    ],
)
def test_array_values_that_are_not_integers_are_type_errors(values):
    with pytest.raises(TypeError):
        keys(*values)
    with pytest.raises(TypeError):
        derive_seed(*values)


@pytest.mark.parametrize(
    "values", [[np.arange(2), np.arange(3)], [np.arange(4).reshape(2, 2)]], ids=["lengths", "2-D"]
)
def test_arrays_of_other_shapes_are_value_errors(values):
    with pytest.raises(ValueError):
        keys(*values)


def test_stream_takes_integers_or_one_key():
    with pytest.raises(TypeError):
        stream(5, np.arange(2))
    with pytest.raises(TypeError):
        stream(keys(5, 1)[0], 1)
