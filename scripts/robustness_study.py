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
"""

import argparse
import json
from pathlib import Path

from datamoll.study import aggregate, run_study


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="0,1,2", help="comma-separated seed list")
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--train-count", type=int, default=4096)
    parser.add_argument("--test-count", type=int, default=1024)
    parser.add_argument("--out", default=None, help="optional JSON output path")
    args = parser.parse_args()

    seeds = [int(s) for s in args.seeds.split(",")]
    results = []
    print(f"{'seed':>4}  {'arm':<9}  {'clean':>6}  {'corr':>6}  {'ece':>6}  {'nll':>6}")
    for seed in seeds:
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
                f"{seed:>4}  {arm:<9}  {clean.error:6.3f}  {corrupted.error:6.3f}"
                f"  {corrupted.ece:6.3f}  {corrupted.nll:6.3f}"
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
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"summary written to {args.out}")


if __name__ == "__main__":
    main()
