"""Tests of the benchmark itself: span arithmetic, patch coverage, statistics,
calibration scaling, correctness gates, and agreement between BENCHMARK.json
and the code.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import types
from pathlib import Path

import numpy as np
import pytest

import layers
import workloads
from calibrate import MIN_SLICES, REFERENCE_SLICE_S, Calibration
from datamoll import analysis, mollifier, schedules, tensors, trainer
from stats import nearest_rank, quartile_spread, tail_percentile, timing_summary
from tracer import Tracer, unpatched_bindings

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _tracer(clock=None) -> Tracer:
    kwargs = {} if clock is None else {"clock": clock}
    return Tracer("datamoll", layers.TARGETS, layers.traced_modules(), **kwargs)


def _ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def _images(count: int, side: int = 8) -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    return [rng.standard_normal((side, side, 1)) for _ in range(count)]


def test_self_time_of_nested_spans():
    # Every clock read advances time by 1, so a leaf span lasts 1 and a span
    # lasts 1 plus 2 per span nested anywhere inside it.
    tracer = _tracer(_ticking_clock())
    blur_only = schedules.ScheduleConfig.for_width(8, mode_probs=(0.0, 0.0, 1.0))
    with tracer.active():
        mollifier.mollify_batch(_images(2), blur_only, seed=3)
    summary = tracer.summary()
    # Per image: stream, sample_temperature, blur_image > heat_blur > (dct2d, idct2d).
    assert summary["tensors.dct2d"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert summary["tensors.idct2d"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert summary["mollifier.heat_blur"] == {"calls": 2, "s": 10.0, "self_s": 6.0}
    assert summary["mollifier.blur_image"] == {"calls": 2, "s": 14.0, "self_s": 4.0}
    assert summary["mollifier.mollify_batch"] == {"calls": 1, "s": 25.0, "self_s": 7.0}
    assert sum(v["self_s"] for v in summary.values()) == 25.0


def test_self_times_add_up_to_the_root_span():
    tracer = _tracer()
    cfg = schedules.ScheduleConfig.for_width(8)
    with tracer.active(), tracer.span(layers.ROOT_SPAN):
        mollifier.mollify_batch(_images(30), cfg, seed=1)
    summary = tracer.summary()
    total = sum(v["self_s"] for v in summary.values())
    assert total == pytest.approx(summary[layers.ROOT_SPAN]["s"], rel=1e-9)
    assert summary["streams.stream"]["calls"] >= 30
    assert tracer.counters["tensors.ensure_image.calls"] >= 30


def test_generator_spans_cover_each_cell_not_the_consumer():
    tracer = _tracer(_ticking_clock())
    with tracer.active():
        for _, batch in analysis.corruption_grid(_images(2), seed=0):
            tensors.dct2d(batch[0])  # the consumer's own work
    summary = tracer.summary()
    # One span per resumption: 20 cells, then the one that ends the generator.
    assert summary["analysis.corruption_grid"]["calls"] == 21
    kinds = [f"analysis.corrupt.{k}" for k in analysis.CORRUPTION_KINDS]
    assert sum(summary[k]["calls"] for k in kinds) == 40
    cols = tracer.spans()
    names = [tracer.names[i] for i in cols["name_id"]]
    parents = [tracer.names[cols["name_id"][p]] if p >= 0 else None for p in cols["parent"]]
    assert {p for n, p in zip(names, parents) if n in kinds} == {"analysis.corruption_grid"}
    # Gaussian-blur cells nest dct2d in heat_blur; the consumer's dct2d is a root.
    dct_parents = [p for n, p in zip(names, parents) if n == "tensors.dct2d"]
    assert dct_parents.count("mollifier.heat_blur") == 10
    assert dct_parents.count(None) == 20


def test_wrappers_reach_every_module_that_imports_a_target():
    tracer = _tracer()
    assert "datamoll.mollifier.dct2d" in tracer.patch_sites("tensors.dct2d")
    assert "datamoll.analysis.heat_blur" in tracer.patch_sites("mollifier.heat_blur")
    assert "datamoll.cli.predict_records" in tracer.patch_sites("trainer.predict_records")
    assert "datamoll.cli.evaluate" in tracer.patch_sites("metrics.evaluate")
    with tracer.active():
        assert unpatched_bindings(tracer.originals, layers.traced_modules()) == []
        assert mollifier.dct2d is not tracer.originals["tensors.dct2d"]
    assert mollifier.dct2d is tensors.dct2d is tracer.originals["tensors.dct2d"]


def test_guard_flags_bindings_the_tracer_does_not_patch():
    stray = types.ModuleType("stray")
    stray.dct2d = tensors.dct2d
    stray.TABLE = {"train": trainer.train}
    tracer = _tracer()
    with tracer.active():
        found = unpatched_bindings(tracer.originals, layers.traced_modules() + [stray])
    assert sorted(found) == [
        "stray.TABLE -> trainer.train",
        "stray.dct2d -> tensors.dct2d",
    ]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(20) is None
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(9999) == 99.0
    assert tail_percentile(10000) == 99.9


def test_nearest_rank_and_summary():
    samples = [float(v) for v in range(100, 0, -1)]
    assert nearest_rank(samples, 50) == 50.0
    assert nearest_rank(samples, 90) == 90.0
    summary = timing_summary(samples)
    assert summary == {"count": 100, "p50": 50.5, "tail_p": 90.0, "tail_value": 90.0}
    assert timing_summary([3.0, 1.0])["tail_p"] is None
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_infocurve_gate_fails_a_curve_not_starting_at_one():
    wl = workloads.InfoCurve()
    good = [analysis.InfoCurvePoint(t, 1.0, r) for t, r in zip(range(11), np.linspace(1.0, 0.2, 11))]
    units = [1.0 / wl.units_per_op] * wl.units_per_op
    assert wl.assess(None, (good, units), 1.0).failed == 0
    bad = [analysis.InfoCurvePoint(p.t, p.sigma_b, p.mean_ratio * 0.99) for p in good]
    assert wl.assess(None, (bad, units), 1.0).failed == wl.units_per_op


def test_train_gate_fails_params_that_differ_between_same_seed_runs():
    wl = workloads.Train("train-plain", mollify=False)
    test = types.SimpleNamespace(images=np.zeros((4, 16, 16, 1)), labels=np.zeros(4, dtype=np.int64))
    state = workloads.TrainState(train=None, test=test, cfg=None)
    report = trainer.TrainReport(
        [trainer.EpochStats(e, 1.0, 0.01, 0.1) for e in range(workloads.EPOCHS)]
    )
    params = trainer.init_params(256, 4, 4, seed=0)
    params.b2[0] = 1.0  # predict class 0, which every test label is
    assert wl.assess(state, (params, report), 1.0).failed == 0
    params.w1[0, 0] += 1e-12
    rec = wl.assess(state, (params, report), 1.0)
    assert rec.failed == workloads.EPOCHS
    assert rec.problems == ["params differ from the first same-seed run"]


def test_benchmark_json_names_what_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.per_layer_units()
    assert len(SPEC["per_layer"]) == len(layers.per_layer_units())


def test_each_step_is_scaled_by_the_calibration_samples_beside_it():
    cal = Calibration()
    cal.samples = [[1.0, 1.0, 1.0], [3.0, 3.0, 3.0], [2.0, 2.0, 2.0]]
    assert cal.factors() == [REFERENCE_SLICE_S / 2.0, REFERENCE_SLICE_S / 2.5]
    cal = Calibration()
    cal.sample()
    cal.sample(step_seconds=0.0)
    assert [len(s) for s in cal.samples] == [MIN_SLICES, MIN_SLICES]
    assert len(cal.factors()) == 1
