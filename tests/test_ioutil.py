import argparse
import ast
import csv
import io
import json
import math
import os
import re
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datamoll.cli import _finite, _read_image, _read_labels, parse_positive_int, parse_u64
from datamoll.errors import DataError
from datamoll.ioutil import (
    KINDS, check_value, read_csv_rows, read_float, read_json_object, write_bytes, write_csv,
    write_json,
)
from datamoll.metrics import read_records_csv

TEXTS = ["plain", "a,b", 'say "x"', "two\nlines", "cr\rhere", " lead", "", "é-5"]
INTS = list(range(-3, len(TEXTS) - 3))
FLOATS = [0.1, float("nan"), float("inf"), float("-inf"), -0.0, 1e-300, 1 / 3, 12345678901234567.0]


def csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("as_arrays", [False, True], ids=["lists", "arrays"])
def test_bytes_are_those_of_csv_writer(tmp_path, as_arrays):
    columns = [TEXTS, INTS, FLOATS]
    if as_arrays:
        columns = [np.array(column) for column in columns]
    header = ["text", "a,b", "float"]
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == csv_writer_bytes(header, zip(TEXTS, INTS, FLOATS))


def test_one_column_quotes_an_empty_field_as_csv_writer_does(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["only"], [TEXTS])
    assert path.read_bytes() == csv_writer_bytes(["only"], [[text] for text in TEXTS])


def test_zero_rows_give_the_header_alone(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[], np.zeros(0)])
    assert path.read_bytes() == b"a,b\n"


@pytest.mark.parametrize(
    "columns", [[[1, 2], [3]], [[1, 2]], [[1], [2], [3]]], ids=["ragged", "too few", "too many"]
)
def test_columns_must_match_the_header_and_each_other(tmp_path, columns):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], columns)
    assert not path.exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_a_written_file_gets_the_mode_open_would_give(tmp_path, umask, mode):
    path = tmp_path / "f.bin"
    old = os.umask(umask)
    try:
        write_bytes(path, b"data")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]


def test_json_round_trips_in_the_one_file_layout(tmp_path):
    path = tmp_path / "v.json"
    value = {"b": [1, 0.5], "a": {"z": None, "y": "é"}}
    write_json(path, value)
    assert path.read_bytes() == (json.dumps(value, indent=2, sort_keys=True) + "\n").encode()
    assert read_json_object(path) == value



@pytest.mark.parametrize(
    "text, key",
    [
        ('{"a": 1, "a": 1}', "a"),
        ('{"s": {"k": 1, "j": 2, "k": 3}}', "k"),
        ('{"l": [{"x": 1, "x": 2}]}', "x"),
    ],
    ids=["top", "nested", "in-list"],
)
def test_a_repeated_key_at_any_depth_names_the_file_and_key(tmp_path, text, key):
    path = tmp_path / "v.json"
    path.write_text(text)
    with pytest.raises(DataError) as info:
        read_json_object(path)
    assert str(info.value) == f"{path}: key {key!r} appears twice in one object"


@settings(max_examples=300, deadline=None)
@given(text=st.text(st.sampled_from(["a", ",", '"', "\r", "\n", "\x0c", "\x85", "\u2028"])))
def test_rows_and_line_numbers_are_those_of_a_file_opened_with_newline_empty(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            expected = [(reader.line_num, row) for row in reader]
        assert read_csv_rows(path) == expected
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert read_csv_rows(path) == expected


def _call_name(node: ast.AST) -> str | None:
    """``loads`` for ``json.loads(...)`` or ``loads(...)``; None for a node that is not a call."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _argument(call: ast.Call, index: int, keyword: str) -> ast.AST | None:
    given = call.args[index] if len(call.args) > index else None
    return next((kw.value for kw in call.keywords if kw.arg == keyword), given)


def _text_reads(tree: ast.Module) -> list[str]:
    """The calls in ``tree`` that only ``ioutil`` may make: decoding bytes, opening a
    file for text reading, and parsing CSV, JSON or other text, as ``np.loadtxt`` does."""
    found = []
    for call in ast.walk(tree):
        name = _call_name(call)
        owner = getattr(getattr(call, "func", None), "value", None)
        owner = owner.id if isinstance(owner, ast.Name) else None
        what = None
        if name in ("decode", "read_text") and isinstance(call.func, ast.Attribute):
            what = f".{name}()"
        elif (owner, name) in (("json", "loads"), ("json", "load"), ("csv", "reader")):
            what = f"{owner}.{name}()"
        elif name == "open" and owner != "os":  # os.open takes flags, not a mode
            mode = _argument(call, 1, "mode")
            mode = mode.value if isinstance(mode, ast.Constant) else "r"
            if mode is not None and "r" in mode and "b" not in mode:
                what = f"open(..., {mode!r})"
        elif name == "loadtxt":
            what = "np.loadtxt()"
        if what is not None:
            found.append(f"line {call.lineno}: {what}")
    return found


# Each kind of ioutil.KINDS, values of it and values that are not.
KIND_CASES = [
    ("a boolean", [True, False], [0, 1, "true", None]),
    ("an integer", [0, -3, 10**400], [True, 1.0, "1", None]),
    ("a positive integer", [1, 10**400], [0, -1, True, 1.0]),
    ("an integer in [0, 2**64)", [0, 2**64 - 1], [-1, 2**64, True, 0.0]),
    (
        "a finite number",
        [0, -2.5, 1e308, 10**308],
        [10**400, -(10**400), math.nan, math.inf, -math.inf, True, "1", None],
    ),
    ("a string", ["", "x"], [None, 1, b"x"]),
    ("a list of finite numbers", [[], [1, 2.5]], [(1.0,), [1, math.nan], [10**400], [True]]),
    ("a list of non-negative integers", [[], [0, 3]], [[-1], [1.0], [True], (1,), [[1]], None]),
    (
        "a non-empty list of integers in [0, 2**64)",
        [[0], [2, 2**64 - 1]],
        [[], [-1], [2**64], [True], [0.0], (0,), [[0]], None],
    ),
]


def test_every_kind_has_cases():
    assert [kind for kind, _, _ in KIND_CASES] == list(KINDS)


@pytest.mark.parametrize("kind, good, bad", KIND_CASES)
def test_each_kind_takes_its_values_and_names_the_rest(kind, good, bad):
    for value in good:
        assert check_value("x", value, kind) is value
    for value in bad:
        with pytest.raises(DataError, match=re.escape(f"where must be {kind}, got {value!r}")):
            check_value("where", value, kind)


def test_only_ioutil_reads_text():
    package = Path(__file__).resolve().parents[1] / "src" / "datamoll"
    found = {}
    for module in sorted(package.glob("*.py")):
        if module.name != "ioutil.py":
            found[module.name] = _text_reads(ast.parse(module.read_text(encoding="utf-8")))
    assert {name: calls for name, calls in found.items() if calls} == {}


# Each reader of an integer cell: what it names the cell, how it reads the cell's
# number from a CSV file, the file's rows about the cell, the row it names, the bound.
RECORDS_HEADER = ["index", "tag", "true_class", *(f"p{i}" for i in range(10))]
INT_READERS = [
    ("label", lambda path: _read_labels(path)["a.csv"], lambda cell: [["a.csv", cell]], 1, 2**32 - 2),
    ("pixel", lambda path: _read_image(path, (1,))[0, 0, 0], lambda cell: [[cell, "0"]], 1, 255),
    (
        "true_class",
        lambda path: read_records_csv(path).true_class[0],
        lambda cell: [RECORDS_HEADER, ["0", "a", cell, "1", *["0"] * 9]],
        2,
        9,
    ),
]


# Integer cells and what each reads as, None where it is refused; {high} is the bound.
INT_CELLS = {
    "7": ("7", "7"), "blanks": (" 7 ", "7"), "zero-padded": ("007", "7"), "0": ("0", "0"),
    "bound": ("{high}", "{high}"), "plus": ("+7", None), "minus-zero": ("-0", None),
    "underscore": ("1_0", None), "arabic-indic-3": ("\u0663", None), "nbsp": ("7\xa0", None),
    "empty": ("", None), "bound+1": ("{above}", None), "5000-digits": ("9" * 5000, None),
}


@pytest.mark.parametrize(
    "what, read, rows, line, high", INT_READERS, ids=[reader[0] for reader in INT_READERS]
)
@pytest.mark.parametrize("cell, value", INT_CELLS.values(), ids=INT_CELLS.keys())
def test_every_integer_cell_is_read_by_one_grammar(
    tmp_path, what, read, rows, line, high, cell, value
):
    cell = cell.format(high=high, above=high + 1)
    path = tmp_path / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows(cell))
    if value is not None:
        assert read(path) == int(value.format(high=high))
    else:
        with pytest.raises(DataError) as info:
            read(path)
        assert str(info.value) == f"{path} row {line}: {what} {cell!r} is not an integer in [0, {high}]"


@settings(max_examples=300, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_float_write_csv_writes_reads_back(value):
    back = read_float("x", str(value))
    assert back == value and math.copysign(1.0, back) == math.copysign(1.0, value)


@pytest.mark.parametrize(
    "parse, low", [(parse_u64, 0), (parse_positive_int, 1)], ids=["u64", "positive"]
)
@pytest.mark.parametrize("cell, value", INT_CELLS.values(), ids=INT_CELLS.keys())
def test_an_integer_flag_is_read_as_an_integer_cell(parse, low, cell, value):
    high = 2**64 - 1
    cell = cell.format(high=high, above=high + 1)
    if value is not None and int(value.format(high=high)) >= low:
        assert parse(cell) == int(value.format(high=high))
    else:
        with pytest.raises(argparse.ArgumentTypeError) as info:
            parse(cell)
        assert str(info.value) == f"expected an integer in [{low}, 2**64), got {cell!r}"


# Number cells and what each reads as, None where it is refused.
FLOAT_CELLS = [
    ("3.2e-17", 3.2e-17), ("1e-05", 1e-05), ("1.0", 1.0), ("-0.0", -0.0), (" 7 ", 7.0),
    ("+.5", 0.5), ("5.", 5.0), ("2E+3", 2000.0), ("1e-400", 0.0), ("007", 7.0),
    ("0.0_1", None), ("\u0660.\u0665", None), ("nan", None), ("inf", None), ("-Infinity", None),
    ("1e400", None), ("", None), (".", None), ("e5", None), ("1e", None), ("1.2.3", None),
    ("0x10", None), ("1,5", None), ("--1", None), ("7\xa0", None), ("\xbd", None),
]
# Each reader of a number: a function of the text, the error it raises, its message.
FLOAT_READERS = {
    "cell": (lambda text: read_float("at", text), DataError, "at {!r} is not a finite number"),
    "flag": (_finite, argparse.ArgumentTypeError, "expected a finite number, got {!r}"),
}


@pytest.mark.parametrize("read, error, message", FLOAT_READERS.values(), ids=FLOAT_READERS.keys())
@pytest.mark.parametrize("cell, value", FLOAT_CELLS)
def test_every_number_is_read_by_one_grammar(read, error, message, cell, value):
    if value is not None:
        back = read(cell)
        assert back == value and math.copysign(1.0, back) == math.copysign(1.0, value)
    else:
        with pytest.raises(error) as info:
            read(cell)
        assert str(info.value) == message.format(cell)


def test_a_probability_cell_is_named_by_its_row_and_column(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("index,tag,true_class,p0,p1\n0,a,0,0.5,0.5\n1,a,0,0.5,0.0_5e1\n")
    with pytest.raises(DataError) as info:
        read_records_csv(path)
    assert str(info.value) == f"{path} row 3: p1 '0.0_5e1' is not a finite number"
