"""The benchmark's workloads, each driven through datamoll's public entry points.

Every call into the package goes through a module attribute
(``trainer.train``), never a name imported into this module, so the tracer's
wrappers see it.  All inputs derive from the workload seed through ``synth``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from datamoll import analysis, cli, metrics, mol1, schedules, streams, synth, tensors, trainer

# The study's split: 4096 training and 1024 test images, 16x16x1, 4 classes.
TRAIN_COUNT = 4096
TEST_COUNT = 1024
SIDE = 16
CLASSES = 4
# Package defaults except the epoch count, which is cut from 100 so that a
# mollified run fits a few times into one measurement.
EPOCHS = 8
# Chance error is 0.75; after 8 epochs the plain model reaches about 0.2
# and the mollified one about 0.37 on this split.
TEST_ERROR_BOUND = 0.5
# Stream tags of the study (study.py), so the data match run_study's.
_TAG_TRAIN_DATA = 101
_TAG_TEST_DATA = 102
_TAG_FRACTAL = 103

FRACTAL_COUNT = 256
FRACTAL_SIDE = 32
T_STEPS = 11
# 1 clean prediction pass plus 4 kinds x 5 severities.
EVAL_PASSES = 1 + len(analysis.CORRUPTION_KINDS) * 5
EVAL_CELLS = EVAL_PASSES - 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "images_per_s": "1/s",
    "unit_s_p50": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class OpRecord:
    """What one timed operation did and whether its outputs were right."""

    seconds: float
    units: int
    failed: int
    images: int
    unit_seconds: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _params_digest(params) -> str:
    return _sha256(b"".join(arr.tobytes() for _, arr in params.blocks()))


def _grating_splits(seed: int):
    raw_train, labels_train = synth.grating_dataset(
        TRAIN_COUNT, SIDE, SIDE, CLASSES, seed=streams.derive_seed(seed, _TAG_TRAIN_DATA)
    )
    raw_test, labels_test = synth.grating_dataset(
        TEST_COUNT, SIDE, SIDE, CLASSES, seed=streams.derive_seed(seed, _TAG_TEST_DATA)
    )
    stats = tensors.compute_channel_stats(list(raw_train))
    train = synth.standardized_dataset(raw_train, labels_train, CLASSES, stats=stats)
    test = synth.standardized_dataset(raw_test, labels_test, CLASSES, stats=stats)
    return train, test


def _train_config(seed: int, mollify: bool) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        schedule=schedules.ScheduleConfig.for_width(SIDE),
        epochs=EPOCHS,
        seed=seed,
        mollify=mollify,
    )


def _oracle_errors(params, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-image miss (True/False) from a forward pass written here in NumPy."""
    x = images.reshape(images.shape[0], -1)
    hidden = np.maximum(x @ params.w1.T + params.b1, 0.0)
    logits = hidden @ params.w2.T + params.b2
    return np.argmax(logits, axis=1) != labels


class Workload:
    name: str
    unit: str
    images_per_op: int
    units_per_op: int

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def op(self, state):
        raise NotImplementedError

    def assess(self, state, out, seconds: float) -> OpRecord:
        raise NotImplementedError


@dataclass
class TrainState:
    train: object
    test: object
    cfg: trainer.TrainConfig
    reference_digest: str | None = None


class Train(Workload):
    """``trainer.train`` at package defaults, with or without mollification."""

    unit = "epoch"
    images_per_op = TRAIN_COUNT * EPOCHS
    units_per_op = EPOCHS

    def __init__(self, name: str, mollify: bool) -> None:
        self.name = name
        self.mollify = mollify

    def setup(self, seed: int, workdir: Path) -> TrainState:
        train, test = _grating_splits(seed)
        return TrainState(train, test, _train_config(seed, self.mollify))

    def op(self, state: TrainState):
        return trainer.train(state.train, state.cfg)

    def assess(self, state: TrainState, out, seconds: float) -> OpRecord:
        params, report = out
        rec = OpRecord(seconds, EPOCHS, 0, self.images_per_op)
        rec.unit_seconds = [row.seconds for row in report.epochs]
        bad_epochs = sum(1 for row in report.epochs if not math.isfinite(row.mean_loss))
        if bad_epochs or len(report.epochs) != EPOCHS:
            rec.problems.append(f"{bad_epochs} epochs with a non-finite loss")
        digest = _params_digest(params)
        rec.digests["params"] = digest
        if state.reference_digest is None:
            state.reference_digest = digest
        if digest != state.reference_digest:
            rec.problems.append("params differ from the first same-seed run")
        if not params.all_finite():
            rec.problems.append("non-finite parameters")
        else:
            error = float(_oracle_errors(params, state.test.images, state.test.labels).mean())
            if not error < TEST_ERROR_BOUND:
                rec.problems.append(f"clean test error {error:.4f} >= {TEST_ERROR_BOUND}")
        # Every check above covers the whole run, so a failure fails each epoch.
        rec.failed = EPOCHS if rec.problems else 0
        return rec


@dataclass
class EvalState:
    seed: int
    params_path: Path
    dataset_path: Path
    out_dir: Path
    params: object
    test: object


@contextlib.contextmanager
def _cell_clock(times: list[float]):
    """Time each corruption cell as ``cmd_eval`` consumes the grid.

    A cell's time runs from the request for it to the request for the next
    one, so it covers building the corrupted batch and predicting on it.
    """
    # Cells of different kinds differ in cost by up to 5x, so the median of
    # a run's cells falls in a gap between kinds and jumps from run to run.
    # assess() therefore keeps one sample per operation: its mean cell.
    inner = cli.corruption_grid

    def clocked(*args, **kwargs):
        last = time.perf_counter()
        for item in inner(*args, **kwargs):
            yield item
            now = time.perf_counter()
            times.append(now - last)
            last = now

    cli.corruption_grid = clocked
    try:
        yield
    finally:
        cli.corruption_grid = inner


class EvalCorrupted(Workload):
    """``datamoll eval --corruptions true`` on the 1024-image test split."""

    name = "eval-corrupted"
    unit = "corruption cell"
    images_per_op = TEST_COUNT * EVAL_PASSES
    units_per_op = EVAL_CELLS

    def setup(self, seed: int, workdir: Path) -> EvalState:
        train, test = _grating_splits(seed)
        params, _ = trainer.train(train, _train_config(seed, mollify=False))
        setup_dir = workdir / "eval-setup"
        params_path = setup_dir / "params.bin"
        dataset_path = setup_dir / "test.mol1"
        trainer.save_params(params, params_path, seed, "perfbench")
        mol1.save_mol1(test, dataset_path)
        stored, _ = trainer.load_params(params_path)
        return EvalState(seed, params_path, dataset_path, workdir / "eval-out", stored, test)

    def op(self, state: EvalState):
        cells: list[float] = []
        argv = [
            "eval", str(state.params_path),
            "--dataset", str(state.dataset_path),
            "--out", str(state.out_dir),
            "--corruptions", "true",
            "--seed", str(state.seed),
        ]
        with _cell_clock(cells), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, cells

    def assess(self, state: EvalState, out, seconds: float) -> OpRecord:
        code, cells = out
        rec = OpRecord(seconds, EVAL_CELLS, 0, self.images_per_op)
        if cells:
            rec.unit_seconds = [sum(cells) / len(cells)]
        if code != 0:
            rec.problems.append(f"eval exited with {code}")
            rec.failed = EVAL_CELLS
            return rec
        records_path = state.out_dir / "records.csv"
        report_path = state.out_dir / "eval.json"
        rec.digests["records.csv"] = _sha256(records_path.read_bytes())
        rec.digests["eval.json"] = _sha256(report_path.read_bytes())
        records = metrics.read_records_csv(records_path)
        report = json.loads(report_path.read_text())
        if len(records) != TEST_COUNT * EVAL_PASSES or len(cells) != EVAL_CELLS:
            rec.problems.append(f"{len(records)} records and {len(cells)} cells")
            rec.failed = EVAL_CELLS
            return rec
        probs = np.stack([r.probs for r in records])
        truth = np.array([r.true_class for r in records])
        tags = np.array([r.tag for r in records])
        miss = np.argmax(probs, axis=1) != truth
        clean = tags == "clean"
        oracle_clean = _oracle_errors(state.params, state.test.images, state.test.labels)
        whole_run = []
        if not np.array_equal(miss[clean], oracle_clean):
            whole_run.append("clean predictions differ from the NumPy forward pass")
        for split, mask in (("clean", clean), ("corrupted", ~clean)):
            part = report[split]
            if part["error"] != miss[mask].mean():
                whole_run.append(f"{split} error {part['error']} != oracle {miss[mask].mean()}")
            if not 0.0 <= part["ece"] <= 1.0:
                whole_run.append(f"{split} ECE {part['ece']} outside [0, 1]")
        if whole_run:
            rec.problems += whole_run
            rec.failed = EVAL_CELLS
            return rec
        per_tag = report["corrupted"]["per_tag"]
        for tag in sorted(set(tags[~clean])):
            cell = per_tag.get(tag, {})
            oracle = miss[tags == tag].mean()
            if cell.get("error") != oracle or not 0.0 <= cell.get("ece", -1.0) <= 1.0:
                rec.problems.append(f"cell {tag}: {cell} vs oracle error {oracle}")
                rec.failed += 1
        return rec


@dataclass
class InfoState:
    images: list
    stats: object
    cfg: schedules.ScheduleConfig
    grid: list[float]


class InfoCurve(Workload):
    """``analysis.info_curve`` on 32x32 1/f textures over 11 temperatures."""

    name = "infocurve"
    unit = "blurred-and-encoded image"
    images_per_op = FRACTAL_COUNT * T_STEPS
    units_per_op = FRACTAL_COUNT * T_STEPS

    def setup(self, seed: int, workdir: Path) -> InfoState:
        raw = synth.fractal_textures(
            FRACTAL_COUNT, FRACTAL_SIDE, FRACTAL_SIDE, seed=streams.derive_seed(seed, _TAG_FRACTAL)
        )
        ds = synth.standardized_dataset(raw, np.zeros(FRACTAL_COUNT, dtype=np.int64), 2)
        grid = [float(t) for t in np.linspace(0.0, 1.0, T_STEPS)]
        return InfoState(list(ds.images), ds.stats, schedules.ScheduleConfig.for_width(FRACTAL_SIDE), grid)

    def op(self, state: InfoState):
        stamps = [time.perf_counter()]
        encode = analysis.png_size

        def clocked(arr):
            size = encode(arr)
            stamps.append(time.perf_counter())
            return size

        # Each interval between two encodings is one image blurred,
        # quantized and encoded.
        analysis.png_size = clocked
        try:
            points = analysis.info_curve(state.images, state.stats, state.cfg, state.grid)
        finally:
            analysis.png_size = encode
        return points, np.diff(stamps).tolist()

    def assess(self, state: InfoState, out, seconds: float) -> OpRecord:
        points, rec_units = out
        rec = OpRecord(seconds, self.units_per_op, 0, self.images_per_op, unit_seconds=rec_units)
        ratios = np.array([p.mean_ratio for p in points])
        rec.digests["info_curve"] = _sha256(ratios.tobytes())
        if len(points) != T_STEPS or ratios[0] != 1.0 or not ratios[-1] < 1.0:
            rec.problems.append(f"curve {ratios.tolist()} must start at 1.0 and end below it")
        if not np.all(np.isfinite(ratios)):
            rec.problems.append("non-finite ratios")
        if len(rec_units) != self.units_per_op:
            rec.problems.append(f"{len(rec_units)} encodings, expected {self.units_per_op}")
        rec.failed = self.units_per_op if rec.problems else 0
        return rec


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Train("train-mollified", mollify=True),
        Train("train-plain", mollify=False),
        EvalCorrupted(),
        InfoCurve(),
    )
}
