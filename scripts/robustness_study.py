#!/usr/bin/env python3
"""Run the mollified-vs-baseline robustness comparison and print a table.

For each seed the same MLP is trained once per arm of ``study.ARMS`` on the
seeded texture problem: plainly with cross-entropy, and with input
mollification plus matched label smoothing (the package defaults).  Each
model is evaluated on clean and corrupted test splits.  Typical outcome: a
25-35% relative reduction of mean corrupted error at unchanged clean error;
pooled corrupted ECE and NLL move against the mollified model on this
shallow-MLP benchmark because its smoothed-label confidence undershoots the
accuracy it retains under mid-strength corruption.

Exit codes are those of ``datamoll``: 0 success, 2 usage error, 3 data
error, 4 numerical failure.
"""

import argparse
import errno
import os
import sys
import tempfile
from pathlib import Path

from datamoll.cli import exit_code, parse_positive_int, parse_u64
from datamoll.ioutil import write_json
from datamoll.study import TEST_COUNT, TRAIN_COUNT, aggregate, run_study
from datamoll.trainer import TrainConfig


def _parse_seeds(text: str) -> list[int]:
    return [parse_u64(s) for s in text.split(",")]


def _check_writable(path: Path) -> None:
    """Raise OSError unless a file can be written at ``path``: it is no directory,
    and a temp file can be made and removed in its parent, or in the nearest
    existing ancestor where the parent is yet to be made."""
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    parent = path.parent
    while not parent.exists():
        parent = parent.parent
    with tempfile.NamedTemporaryFile(dir=parent):
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seeds", type=_parse_seeds, default="0,1,2", help="comma-separated seed list"
    )
    parser.add_argument("--epochs", type=parse_positive_int, default=TrainConfig.epochs)
    parser.add_argument("--train-count", type=parse_positive_int, default=TRAIN_COUNT)
    parser.add_argument("--test-count", type=parse_positive_int, default=TEST_COUNT)
    parser.add_argument("--out", default=None, help="optional JSON output path")
    args = parser.parse_args()
    if args.out:
        _check_writable(Path(args.out))

    results = []
    print(f"{'seed':>4}  {'arm':<9}  {'clean':>6}  {'corr':>6}  {'ece':>6}  {'nll':>6}")
    for seed in args.seeds:
        result = run_study(
            seed,
            train_count=args.train_count,
            test_count=args.test_count,
            epochs=args.epochs,
        )
        results.append(result)
        for arm, reports in result.items():
            clean, corrupted = reports["clean"], reports["corrupted"]
            print(
                f"{seed:>4}  {arm:<9}  {clean['error']:6.3f}  {corrupted['error']:6.3f}"
                f"  {corrupted['ece']:6.3f}  {corrupted['nll']:6.3f}"
            )
    summary = aggregate(results)
    print()
    print(f"mean corrupted error: {summary['baseline_corrupted_error']:.3f} -> "
          f"{summary['mollified_corrupted_error']:.3f} "
          f"({summary['relative_error_reduction']:.1%} relative reduction)")
    print(f"mean clean error:     {summary['baseline_clean_error']:.3f} -> "
          f"{summary['mollified_clean_error']:.3f}")
    print(f"mean corrupted ECE:   {summary['baseline_corrupted_ece']:.3f} -> "
          f"{summary['mollified_corrupted_ece']:.3f}")
    if args.out:
        write_json(args.out, summary)
        print(f"summary written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
