"""Prediction-quality metrics: error rate, NLL, and calibration error.

Predictions are columnar: a NumPy record array with one row per example
and the fields ``probs`` (the C-class probability vector), ``true_class``
and ``tag``.  Build one with :func:`predictions`, which validates every
row; the metrics take it, or any concatenation of such arrays.

Expected calibration error bins records by confidence (the maximum
predicted probability) into equal-width right-closed bins over (0, 1],
then averages |accuracy - confidence| over bins weighted by occupancy.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError
from .ioutil import read_csv_rows, read_float, read_int, write_csv

NLL_FLOOR = 1e-12
ECE_BINS = 15  # the default number of calibration bins
MAX_BINS = 2**53  # the most bins whose edges are quotients of integers float64 holds exactly


def predictions(probs, true_class, tag="") -> np.recarray:
    """Validated record array of ``probs (N, C)``, ``true_class (N,)`` and ``tag``.

    ``tag`` is one string for every row or an array of N strings.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] < 2:
        raise DataError(f"probs must be rows of >= 2 classes, got shape {probs.shape}")
    n, num_classes = probs.shape
    if not np.all((probs >= 0) & (probs <= 1)):
        raise DataError("probabilities must lie in [0, 1]")
    sums = probs.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-6)
    if bad.size:
        raise DataError(f"probabilities must sum to 1 within 1e-6, got {sums[bad[0]]!r}")
    true_class = np.asarray(true_class)
    if true_class.shape != (n,):
        raise DataError(f"true_class must have shape ({n},), got {true_class.shape}")
    out_of_range = (true_class < 0) | (true_class >= num_classes)
    if np.any(out_of_range):
        raise DataError(f"true class {true_class[out_of_range][0]} out of range")
    tags = np.broadcast_to(np.asarray(tag, dtype=np.str_), (n,))
    out = np.recarray(
        n,
        dtype=[("probs", np.float64, (num_classes,)), ("true_class", np.int64), ("tag", tags.dtype)],
    )
    out.probs = probs
    out.true_class = true_class
    out.tag = tags
    return out


def _require_records(preds: np.ndarray) -> None:
    if len(preds) == 0:
        raise DataError("metric computed over an empty record set")


def _hits(preds: np.ndarray) -> np.ndarray:
    """True where the argmax prediction (lowest index on ties) is the true class."""
    return preds["probs"].argmax(axis=1) == preds["true_class"]


def error_rate(preds: np.ndarray) -> float:
    """Fraction of records whose argmax prediction misses the true class."""
    _require_records(preds)
    return int(np.count_nonzero(~_hits(preds))) / len(preds)


def avg_nll(preds: np.ndarray) -> float:
    """Mean negative log probability of the true class (floored at 1e-12)."""
    _require_records(preds)
    p_true = np.take_along_axis(preds["probs"], preds["true_class"][:, None], axis=1)[:, 0]
    logs = np.log(np.maximum(p_true, NLL_FLOOR))
    # A sequential sum (not np.sum's pairwise one) in record order; 0.0 -
    # keeps a perfect score at +0.0.
    return (0.0 - float(np.cumsum(logs)[-1])) / len(preds)


def ece(preds: np.ndarray, num_bins: int = ECE_BINS) -> float:
    """Expected calibration error, ``(1/n) sum_b |sum_{i in b} (hit_i - conf_i)|``
    over the bins the records fill.

    Bin b covers ((b-1)/num_bins, b/num_bins], each edge the float64 quotient of
    exact integers (num_bins <= MAX_BINS); a confidence of 0 is in bin 1.
    """
    _require_records(preds)
    if not 1 <= num_bins <= MAX_BINS:
        raise ValueError(f"num_bins must be in [1, 2**53], got {num_bins}")
    conf = preds["probs"].max(axis=1)
    # The floor of the rounded conf * num_bins is the 0-based bin or one off it.
    bins = np.floor(conf * num_bins)
    bins -= conf <= bins / num_bins
    bins += conf > (bins + 1) / num_bins
    _, group = np.unique(np.maximum(bins, 0), return_inverse=True)
    return float(np.abs(np.bincount(group, weights=_hits(preds) - conf)).sum()) / len(preds)


def _report(preds: np.ndarray, num_bins: int) -> dict:
    return {
        "error": error_rate(preds),
        "nll": avg_nll(preds),
        "ece": ece(preds, num_bins),
        "count": len(preds),
    }


def evaluate(preds: np.ndarray, num_bins: int = ECE_BINS) -> dict:
    """``error``, ``nll``, ``ece`` and ``count`` of a record set, plus a ``per_tag``
    dict of such reports when there are two or more tags: the object ``eval.json``
    stores for each split."""
    report = _report(preds, num_bins)
    distinct, group, counts = np.unique(preds["tag"], return_inverse=True, return_counts=True)
    if len(distinct) > 1:
        # A stable sort keeps each tag's records in record order, as a mask would.
        parts = np.split(preds[np.argsort(group, kind="stable")], np.cumsum(counts[:-1]))
        report["per_tag"] = {str(tag): _report(part, num_bins) for tag, part in zip(distinct, parts)}
    return report


def format_report_table(report: dict, title: str = "overall") -> str:
    """Aligned text table: one row overall, one per tag."""
    rows = [(title, report)] + sorted(report.get("per_tag", {}).items())
    name_w = max(len(name) for name, _ in rows)
    row = "{name}  {count:5d}  {error:7.4f}  {nll:7.4f}  {ece:7.4f}"
    lines = [f"{'tag'.ljust(name_w)}  count   error     nll      ece"]
    lines += [row.format(name=name.ljust(name_w), **rep) for name, rep in rows]
    return "\n".join(lines) + "\n"


def write_records_csv(preds: np.ndarray, path: str | Path) -> None:
    """CSV with header index,tag,true_class,p0,...,p{C-1}, one row per record."""
    _require_records(preds)
    probs = preds["probs"]
    header = ["index", "tag", "true_class"] + [f"p{i}" for i in range(probs.shape[1])]
    write_csv(path, header, [np.arange(len(preds)), preds["tag"], preds["true_class"], *probs.T])


def read_records_csv(path: str | Path) -> np.recarray:
    """Read a file written by :func:`write_records_csv`, validating every row."""
    table = read_csv_rows(path)
    header = table[0][1] if table else []
    num_classes = len(header) - 3  # the p columns
    if header[:3] != ["index", "tag", "true_class"] or num_classes < 2:
        raise DataError(f"{path} is not a prediction-record CSV")
    records = table[1:]
    if not records:
        raise DataError(f"{path} contains no records")
    true_class, probs = [], []
    for line, row in records:
        where = f"{path} row {line}"
        if len(row) != len(header):
            raise DataError(f"{where} has {len(row)} fields, its header {len(header)}")
        true_class.append(read_int(f"{where}: true_class", row[2], 0, num_classes - 1))
        probs.append([read_float(f"{where}: {p}", cell) for p, cell in zip(header[3:], row[3:])])
    return predictions(probs, true_class, np.array([row[1] for _, row in records], dtype=np.str_))
