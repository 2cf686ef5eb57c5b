import csv
import io
import json
import os
import stat

import numpy as np
import pytest

from datamoll.errors import DataError
from datamoll.ioutil import read_json_object, write_bytes, write_csv, write_json

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
