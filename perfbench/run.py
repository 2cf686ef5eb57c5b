#!/usr/bin/env python3
"""Benchmark for datamoll: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a datamoll checkout; it imports the package from
the checkout's ``src`` directory.  Each workload is a closed loop: one caller
in one process runs an operation, checks its outputs, and starts the next
only after that.  BLAS and OpenMP pools are pinned to ``THREADS`` threads.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced operations and reports per-layer metrics.
Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record, with
machine facts and output digests, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Thread pools read these when NumPy and SciPy load, so set them first.
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import pkgutil  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up runs at least this often and for at least this long; setup_s is the median.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 50
# Untimed operations before measuring, so caches and allocators settle.
WARMUP_S = 1.0
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"

def _import_package():
    if not (SRC / "datamoll" / "__init__.py").is_file():
        sys.exit(f"error: no datamoll package under {SRC}; run inside a datamoll checkout")
    sys.path.insert(0, str(SRC))
    import datamoll

    if Path(datamoll.__file__).resolve().parent != SRC / "datamoll":
        sys.exit(f"error: imported datamoll from {datamoll.__file__}, not from {SRC}")
    for info in pkgutil.iter_modules(datamoll.__path__):
        __import__(f"datamoll.{info.name}")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level") == "3":
            l3 = _read(index / "size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": THREADS,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


class Runner:
    """Runs one workload: set-up, warm-up, then the measured operations."""

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.records = []
        self.errors: list[str] = []
        self.state = None

    def setup(self, calibration) -> list[float]:
        times = []
        calibration.sample()
        while True:
            started = time.perf_counter()
            self.state = self.workload.setup(self.seed, self.workdir)
            times.append(time.perf_counter() - started)
            calibration.sample(times[-1])
            enough = len(times) >= SETUP_MIN_REPS and sum(times) >= SETUP_MIN_S
            if enough or len(times) >= SETUP_MAX_REPS:
                return times

    def op(self, tracer=None, root_span: str = "", calibration=None):
        """One operation, timed, then checked; failures are recorded, not raised."""
        from workloads import OpRecord

        wl = self.workload
        gc.collect()
        started = time.perf_counter()
        try:
            if tracer is None:
                out = wl.op(self.state)
            else:
                with tracer.active(), tracer.span(root_span):
                    out = wl.op(self.state)
            seconds = time.perf_counter() - started
            rec = wl.assess(self.state, out, seconds)
        except Exception:
            seconds = time.perf_counter() - started
            self.errors.append(traceback.format_exc())
            rec = OpRecord(seconds, wl.units_per_op, wl.units_per_op, wl.images_per_op)
            rec.problems.append("raised")
        self.records.append(rec)
        if calibration is not None:
            calibration.sample(rec.seconds)
        return rec

    def warm_up(self) -> None:
        spent = 0.0
        while spent < WARMUP_S:
            spent += self.op().seconds


def _room_for_another(done: list, seconds: float) -> bool:
    """Whether one more operation of average length still fits in ``seconds``."""
    total = sum(r.seconds for r in done)
    return not done or total + total / len(done) <= seconds


def end_to_end(setup_times: list[float], measured: list, setup_cal, measure_cal) -> tuple[dict, dict]:
    """End-to-end values, with times scaled to the calibration's reference speed."""
    from stats import timing_summary

    units = [s for rec in measured for s in rec.unit_seconds]
    unit_summary = timing_summary(units)
    images = sum(r.images for r in measured)
    raw = {
        "setup_s": statistics.median(setup_times),
        "images_per_s": images / sum(r.seconds for r in measured),
        "unit_s_p50": unit_summary["p50"],
    }
    scale = measure_cal.factors()
    values = {
        "setup_s": statistics.median(t * f for t, f in zip(setup_times, setup_cal.factors())),
        "images_per_s": images / sum(r.seconds * f for r, f in zip(measured, scale)),
        "unit_s_p50": statistics.median(
            s * f for r, f in zip(measured, scale) for s in r.unit_seconds
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "raw": raw,
        "calibration": {"setup": setup_cal.summary(), "measure": measure_cal.summary()},
        "setup_reps": len(setup_times),
        "ops": len(measured),
        "unit_seconds": unit_summary,
        "images": images,
        "measured_s": sum(r.seconds for r in measured),
    }
    return values, detail


def traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    import layers
    from tracer import Tracer

    modules = layers.traced_modules()
    setup_tracer = Tracer("datamoll", layers.TARGETS, modules)
    with setup_tracer.active():
        runner.state = runner.workload.setup(runner.seed, runner.workdir)
    runner.warm_up()

    tracer = Tracer("datamoll", layers.TARGETS, modules)
    plain, spanned = [], []
    while _room_for_another(plain + spanned, seconds) or not (plain and spanned):
        if len(spanned) < len(plain):
            spanned.append(runner.op(tracer, layers.ROOT_SPAN))
        else:
            plain.append(runner.op())
    traced_s = statistics.fmean(r.seconds for r in spanned)
    untraced_s = statistics.fmean(r.seconds for r in plain)
    # Medians of unit times resist the host's noise better than means of
    # whole operations do.
    unit_ratio = statistics.median(s for r in spanned for s in r.unit_seconds) / statistics.median(
        s for r in plain for s in r.unit_seconds
    )
    values = layers.per_layer_values(
        tracer.summary(),
        tracer.counters,
        setup_tracer.summary(),
        len(spanned),
        runner.workload.images_per_op,
        unit_ratio - 1.0,
        untraced_s,
    )
    detail = {
        "traced_ops": len(spanned),
        "untraced_ops": len(plain),
        "traced_op_s": traced_s,
        "untraced_op_s": untraced_s,
        "spans": len(tracer.start),
        "patch_sites": {t.name: tracer.patch_sites(t.name) for t in layers.TARGETS},
    }
    _save_spans(tracer, runner)
    return values, detail


def _save_spans(tracer, runner: Runner) -> None:
    import numpy as np

    cols = tracer.spans()
    origin = cols["start"].min() if len(cols["start"]) else 0.0
    np.savez_compressed(
        Path(OUT_DIR) / f"{runner.workload.name}-seed{runner.seed}-spans.npz",
        names=np.array(tracer.names),
        name_id=cols["name_id"],
        parent=cols["parent"],
        start=(cols["start"] - origin).astype(np.float32),
        end=(cols["end"] - origin).astype(np.float32),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import layers
    import workloads
    from calibrate import Calibration

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.chdir(ROOT)
    Path(OUT_DIR).mkdir(exist_ok=True)
    workdir = Path(WORK_DIR) / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload]
    runner = Runner(wl, args.seed, workdir)
    try:
        if args.trace:
            values, detail = traced(runner, args.seconds)
            units = layers.per_layer_units()
        else:
            setup_cal, measure_cal = Calibration(), Calibration()
            setup_times = runner.setup(setup_cal)
            runner.warm_up()
            measured = []
            measure_cal.sample()
            while _room_for_another(measured, args.seconds):
                measured.append(runner.op(calibration=measure_cal))
            values, detail = end_to_end(setup_times, measured, setup_cal, measure_cal)
            units = workloads.END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            Path(WORK_DIR).rmdir()
        except OSError:
            pass
        for error in runner.errors:
            print(error, file=sys.stderr)

    attempted = sum(r.units for r in runner.records)
    failed = sum(r.failed for r in runner.records)
    digests = {}
    for rec in runner.records:
        for key, digest in rec.digests.items():
            digests.setdefault(key, [])
            if digest not in digests[key]:
                digests[key].append(digest)
    problems = sorted({p for r in runner.records for p in r.problems})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unit": wl.unit,
        "images_per_op": wl.images_per_op,
        "units_per_op": wl.units_per_op,
        "ops_failed_frac": failed / attempted,
        "detail": detail,
        "digests": digests,
        "problems": problems,
        "errors": runner.errors,
        "machine": machine_facts(),
        "result": result,
    }
    out_path = Path(OUT_DIR) / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{detail.get('ops', detail.get('traced_ops'))} ops, unit = {wl.unit}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:.6g} {unit}")
    print(f"  {'ops_failed_frac':40s} {failed / attempted:.6g} ({failed}/{attempted} units)")
    for problem in problems:
        print(f"  problem: {problem}")
    print(f"  record: {out_path}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
