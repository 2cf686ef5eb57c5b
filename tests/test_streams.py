import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datamoll.streams import derive_seed, stream

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
