"""What the traced run wraps, and the per-layer metrics it reports.

Layers are the modules of ``src/datamoll``.  ``labels`` and ``likelihood``
are not traced: the trainer builds its soft labels privately and uses the
normalizer only with ``loss="normalized"``, so no workload reaches them.
Functions too small for a span (the scalar schedules, ``ensure_image``)
are left to their caller's self time or only counted.
"""

from __future__ import annotations

import sys
from types import ModuleType

from datamoll.analysis import CORRUPTION_KINDS
from tracer import Target


def _corruption_kind(args: tuple, kwargs: dict) -> str:
    return args[1] if len(args) > 1 else kwargs["kind"]


def _result_bytes(args: tuple, kwargs: dict, result) -> float:
    return float(result.nbytes)


def _result_len(args: tuple, kwargs: dict, result) -> float:
    return float(len(result))


# The span the benchmark opens around each traced operation.
ROOT_SPAN = "bench.op"
DCT_BYTES = "tensors.dct.bytes_computed"
PNG_BYTES = "png.bytes_out"

TARGETS = (
    Target("streams", "stream"),
    Target("streams", "derive_seed"),
    Target("schedules", "sample_temperature"),
    Target("tensors", "ensure_image", count_only=True),
    Target("tensors", "dct2d", counter=(DCT_BYTES, _result_bytes)),
    Target("tensors", "idct2d", counter=(DCT_BYTES, _result_bytes)),
    Target("tensors", "compute_channel_stats"),
    Target("mollifier", "mollify_batch"),
    Target("mollifier", "noise_image"),
    Target("mollifier", "blur_image"),
    Target("mollifier", "heat_blur"),
    Target("trainer", "train"),
    Target("trainer", "predict_batch"),
    Target("trainer", "predict_records"),
    Target("trainer", "load_params"),
    Target("analysis", "corrupt", label=_corruption_kind),
    Target("analysis", "corruption_grid"),
    Target("analysis", "info_curve"),
    Target("analysis", "quantize_for_png"),
    Target("metrics", "evaluate"),
    Target("metrics", "ece"),
    Target("metrics", "error_rate"),
    Target("metrics", "avg_nll"),
    Target("metrics", "write_records_csv"),
    Target("png", "encode_png", counter=(PNG_BYTES, _result_len)),
    Target("mol1", "load_mol1"),
    Target("synth", "grating_dataset"),
    Target("synth", "fractal_textures"),
    Target("cli", "main"),
)

# Span name -> fields reported per traced operation.
OP_SPANS = {
    "streams.stream": ("calls", "s", "self_s"),
    "streams.derive_seed": ("calls", "s", "self_s"),
    "schedules.sample_temperature": ("calls", "s", "self_s"),
    "mollifier.mollify_batch": ("calls", "s", "self_s"),
    "mollifier.noise_image": ("calls", "s", "self_s"),
    "mollifier.blur_image": ("calls", "s"),
    "mollifier.heat_blur": ("calls", "s", "self_s"),
    "tensors.dct2d": ("calls", "s", "self_s"),
    "tensors.idct2d": ("calls", "s", "self_s"),
    "trainer.train": ("calls", "s", "self_s"),
    "trainer.predict_records": ("calls", "s", "self_s"),
    "trainer.predict_batch": ("s",),
    "trainer.load_params": ("s",),
    "analysis.corruption_grid": ("s", "self_s"),
    **{f"analysis.corrupt.{kind}": ("s",) for kind in CORRUPTION_KINDS},
    "analysis.info_curve": ("s", "self_s"),
    "analysis.quantize_for_png": ("s",),
    "metrics.evaluate": ("s", "self_s"),
    "metrics.ece": ("calls", "s"),
    "metrics.error_rate": ("s",),
    "metrics.avg_nll": ("s",),
    "metrics.write_records_csv": ("s",),
    "png.encode_png": ("calls", "s"),
    "mol1.load_mol1": ("s",),
    "cli.main": ("calls", "s"),
}

# Span name -> field reported per traced set-up pass.
SETUP_SPANS = {
    "synth.grating_dataset": "s",
    "synth.fractal_textures": "s",
    "tensors.compute_channel_stats": "s",
}

_FIELD_UNITS = {"calls": "calls/op", "s": "s/op", "self_s": "s/op"}

DERIVED = {
    "mollifier.noise_frac": "frac",
    "mollifier.blur_frac": "frac",
    DCT_BYTES: "B/op",
    "tensors.ensure_image.calls": "calls/op",
    "tensors.ensure_image.per_image": "calls/img",
    "analysis.corrupt.calls": "calls/op",
    PNG_BYTES: "B/op",
    "cli.self_s": "s/op",
    "trace.overhead_frac": "frac",
    "trace.self_sum_frac": "frac",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, fields in OP_SPANS.items():
        for f in fields:
            units[f"{span}.{f}"] = _FIELD_UNITS[f]
    for span, f in SETUP_SPANS.items():
        units[f"{span}.{f}"] = "s/setup"
    units.update(DERIVED)
    return units


def per_layer_values(
    op_summary: dict,
    counters: dict,
    setup_summary: dict,
    traced_ops: int,
    images: int,
    overhead: float,
    untraced_s: float,
) -> dict[str, float]:
    """Per-layer values from the traced ops and one traced set-up pass.

    ``overhead`` is the median traced unit time over the median untraced
    one, minus 1; ``untraced_s`` is the mean wall time of one untraced
    operation; ``images`` is the number of images one operation processes.
    """

    def field(summary: dict, span: str, f: str, per: float) -> float:
        return summary.get(span, {}).get(f, 0) / per

    values = {}
    for span, fields in OP_SPANS.items():
        for f in fields:
            values[f"{span}.{f}"] = field(op_summary, span, f, traced_ops)
    for span, f in SETUP_SPANS.items():
        values[f"{span}.{f}"] = field(setup_summary, span, f, 1)
    moll_s = values["mollifier.mollify_batch.s"]
    values["mollifier.noise_frac"] = values["mollifier.noise_image.s"] / moll_s if moll_s else 0.0
    values["mollifier.blur_frac"] = values["mollifier.blur_image.s"] / moll_s if moll_s else 0.0
    values[DCT_BYTES] = counters.get(DCT_BYTES, 0.0) / traced_ops
    ensure = counters.get("tensors.ensure_image.calls", 0.0) / traced_ops
    values["tensors.ensure_image.calls"] = ensure
    values["tensors.ensure_image.per_image"] = ensure / images
    values["analysis.corrupt.calls"] = sum(
        field(op_summary, f"analysis.corrupt.{kind}", "calls", traced_ops) for kind in CORRUPTION_KINDS
    )
    values[PNG_BYTES] = counters.get(PNG_BYTES, 0.0) / traced_ops
    values["cli.self_s"] = field(op_summary, "cli.main", "self_s", traced_ops)
    values["trace.overhead_frac"] = overhead
    layer_self = sum(v["self_s"] for name, v in op_summary.items() if name != ROOT_SPAN)
    values["trace.self_sum_frac"] = layer_self / traced_ops / untraced_s
    return values


def traced_modules() -> list[ModuleType]:
    """Modules whose bindings the tracer swaps: the whole package and the workloads."""
    import workloads

    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("datamoll.")]
    return modules + [workloads]
