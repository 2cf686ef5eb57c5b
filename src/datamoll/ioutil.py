"""Atomic file writes (temp file in the target directory + rename), the one writer
of the package's CSV tables and JSON files, the one reader of its input text, and
the one check of the values read from it."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import string
import sys
from pathlib import Path

import numpy as np

from .errors import DataError


def write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to a new temp file, renamed to ``path``; it gets the mode
    ``open(path, "w")`` gives a new file, 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    write_bytes(path, text.encode("utf-8"))


def write_json(path: str | Path, value) -> None:
    """Write ``value`` as JSON indented by 2, keys sorted, with a final newline."""
    write_text(path, json.dumps(value, indent=2, sort_keys=True) + "\n")


# Each kind of value read from a flag, a config file or a file header, and the
# test that a value parsed from text or JSON must pass; a bool is no number.
KINDS = {
    "a boolean": lambda v: type(v) is bool,
    "an integer": lambda v: type(v) is int,
    "a positive integer": lambda v: type(v) is int and v >= 1,
    "an integer in [0, 2**64)": lambda v: type(v) is int and 0 <= v < 2**64,
    # NaN compares false, and an int compares exactly, so one beyond float64 fails.
    "a finite number": lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    "a string": lambda v: type(v) is str,
    "a list of finite numbers": lambda v: type(v) is list and all(map(KINDS["a finite number"], v)),
    "a list of non-negative integers": (
        lambda v: type(v) is list and all(type(d) is int and d >= 0 for d in v)
    ),
    "a non-empty list of integers in [0, 2**64)": (
        lambda v: type(v) is list and v != [] and all(map(KINDS["an integer in [0, 2**64)"], v))
    ),
}


def check_value(where: str, value, kind: str):
    """``value`` if it is of ``kind``, a key of :data:`KINDS`, else a DataError
    ``<where> must be <kind>, got <value>``."""
    if not KINDS[kind](value):
        raise DataError(f"{where} must be {kind}, got {value!r}")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The pairs of one JSON object as a dict; a LookupError names a repeated key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise LookupError(key)
        out[key] = value
    return out


def read_text(path: str | Path, raw: bytes | None = None) -> str:
    """The UTF-8 text, less a leading BOM, in the file ``path`` or in ``raw`` read from it."""
    raw = Path(path).read_bytes() if raw is None else raw
    try:
        # The BOM goes after decoding, so an error's byte offset counts it, as the file does.
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        row = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path} row {row}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def read_csv_rows(path: str | Path) -> list[tuple[int, list[str]]]:
    """The rows of the CSV table in ``path``, each with the number of its last line
    in the file (a quoted field may span lines); a malformed row is a DataError naming it."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        return [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise DataError(f"{path} row {reader.line_num}: not CSV ({exc})") from None


def read_json_object(path: str | Path, raw: bytes | None = None) -> dict:
    """The JSON object in the file ``path``, or in ``raw`` read from it; other
    content, or an object at any depth that repeats a key, is a DataError naming ``path``."""
    text = read_text(path, raw)
    try:
        value = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise DataError(f"{path} is not JSON: {exc}") from None
    except LookupError as exc:
        raise DataError(f"{path}: key {exc.args[0]!r} appears twice in one object") from None
    if not isinstance(value, dict):
        raise DataError(f"{path} must hold a JSON object, got {type(value).__name__}")
    return value


def read_int(what: str, cell: str, low: int, high: int) -> int:
    """The integer in ``cell``, ASCII digits (zero padding and ASCII blanks around them
    allowed) in [``low``, ``high``]; else a DataError ``<what> '<cell>' is not an integer
    in [<low>, <high>]``."""
    text = cell.strip(string.whitespace)
    digits = text.lstrip("0") or "0"
    # The length check comes first, so int() never meets its 4,300-digit limit.
    if text.isascii() and text.isdigit() and len(digits) <= len(str(high)):
        if low <= int(digits) <= high:
            return int(digits)
    raise DataError(f"{what} {cell!r} is not an integer in [{low}, {high}]")


# An optional sign, ASCII digits with at most one point, and an optional exponent:
# every float repr and every decimal literal, but no name such as nan or inf.
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def read_float(what: str, cell: str) -> float:
    """The finite number in ``cell``, a decimal (ASCII blanks around it allowed); else a
    DataError ``<what> '<cell>' is not a finite number``."""
    text = cell.strip(string.whitespace)
    if _DECIMAL.fullmatch(text) and math.isfinite(value := float(text)):
        return value
    raise DataError(f"{what} {cell!r} is not a finite number")


def _quote(text: str, alone: bool) -> str:
    """``text`` as ``csv.writer`` writes it in a row of one field or of several."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text] if alone else [text, ""])
    return buf.getvalue()[: -1 if alone else -2]


def _cells(column, alone: bool) -> list[str]:
    values = np.asarray(column)
    if values.dtype.kind == "U":
        texts = values.tolist()
        quoted = {text: _quote(text, alone) for text in set(texts)}
        return list(map(quoted.__getitem__, texts))
    return list(map(str, values.tolist()))


def write_csv(path: str | Path, header, columns) -> None:
    """Write equal-length ``columns`` under ``header`` as ``csv.writer`` would.

    A column holds strings or numbers.  A number is written with ``str``,
    which for a float is its round-trip repr; a string is quoted only where
    ``csv.writer`` quotes it.  Rows end in ``\\n``.
    """
    alone = len(header) == 1
    cells = [_cells(column, alone) for column in columns]
    if len(cells) != len(header) or len({len(column) for column in cells}) > 1:
        raise ValueError(
            f"need {len(header)} equal-length columns, got lengths {[len(c) for c in cells]}"
        )
    lines = [",".join(_cells(header, alone)), *map(",".join, zip(*cells))]
    write_text(path, "\n".join(lines) + "\n")
