"""Atomic file-writing helpers (temp file in the target directory + rename),
and the one writer of the package's CSV tables."""

from __future__ import annotations

import csv
import io
import os
import tempfile
from pathlib import Path

import numpy as np


def write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path: str | Path, text: str) -> None:
    write_bytes(path, text.encode("utf-8"))


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
