"""Hypothesis strategies shared by the file-format fuzzers."""

from hypothesis import strategies as st

# Any value json.dumps can write, nested a few levels deep.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
