#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/check_spread.py --workloads train-plain,infocurve --seeds 10

For every end-to-end metric this prints the median over the seeds and the
distance between the first and third quartile as a share of the median,
next to the metric's bound from ``BENCHMARK.json``, and the same spread of
the times before calibration scaling.  A spread under a third
of the bound is steady enough.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import statistics
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = list(spec["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    if cmd[0] in ("python3", "python"):
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    record = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(record.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        raw: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, record = run_once(spec, workload, seed, trace=0)
            ok = ok and result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in record["detail"]["raw"].items():
                raw.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            spread = quartile_spread(vals)
            steady = spread < bounds[name] / 3 or name == "setup_s"
            ok = ok and steady
            print(f"  {workload:16s} {name:14s} median {statistics.median(vals):.6g} "
                  f"spread {spread:.4f} bound {bounds[name]} {'ok' if steady else 'WIDE'}",
                  flush=True)
        for name, vals in raw.items():
            print(f"  {workload:16s} {name:14s} unscaled spread {quartile_spread(vals):.4f}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
