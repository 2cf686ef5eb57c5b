"""Command-line interface wiring the library into reproducible runs.

Subcommands: ``ingest`` (8-bit images or CSV pixel grids -> MOL1 container),
``schedule-dump`` (all schedule curves as CSV), ``mollify`` (export a
mollified copy of a dataset), ``train``, ``eval`` (clean and, optionally,
the 4-corruption x 5-severity grid), ``infocurve`` (PNG compression ratios
over blur temperatures), and ``spectra`` (per-corruption DCT change grids).

Every command but ``ingest`` (which reads no setting) takes an explicit
seed and echoes the effective configuration and its hash into the output
directory (``run.json``); all commands write outputs atomically.  Exit
codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    CORRUPTION_KINDS,
    annulus_means,
    corruption_cell,
    corruption_grid,
    info_curve,
    spectral_delta,
)
from .errors import DataError, TrainingDivergedError
from .ioutil import write_text
from .metrics import evaluate, format_report_table, write_records_csv
from .mol1 import Mol1Dataset, load_mol1, save_mol1
from .mollifier import mollify_batch
from .schedules import (
    ScheduleConfig,
    alpha_sigma,
    blur_sigma,
    dissipation_time,
    gamma_blur,
    gamma_noise,
    snr,
)
from .synth import standardized_dataset
from .trainer import (
    TrainConfig,
    load_params,
    predict_batch,
    predict_records,
    save_params,
    train,
)

# sigma_max for commands that have no dataset to take a width from.
DEFAULT_SIGMA_MAX = 32.0
_SPECTRA_SEVERITY = 3


def _field_defaults(cls) -> dict:
    """Field defaults of a config dataclass as JSON values (None where none)."""
    out = {}
    for f in fields(cls):
        value = None if f.default is MISSING else f.default
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


# The defaults are also the config-file schema (see _check_config).
_DEFAULTS: dict = {
    "seed": 0,
    "dataset": None,
    # sigma_max is resolved to the dataset width when available.
    "schedule": _field_defaults(ScheduleConfig),
    "train": {
        "lr" if name == "lr0" else name: value
        for name, value in _field_defaults(TrainConfig).items()
        if name not in ("schedule", "seed")
    },
    "bins": 15,
    "corruptions": False,
    "t_steps": 11,
}

# Types a config value may have, by the type of its default; bool is not an int.
_ACCEPTED = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}
# Keys whose default is null, with the type a value other than null must have.
_NULLABLE = {"dataset": str, "sigma_max": float}


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_mode_probs(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated probabilities")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(parser: argparse.ArgumentParser, *, dataset: bool = True) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parser.add_argument("--seed", type=int, metavar="U64", help="run seed")
    parser.add_argument("--out", metavar="DIR", required=True, help="output directory")
    if dataset:
        parser.add_argument("--dataset", metavar="PATH", help="MOL1 dataset path")


def _add_schedule_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k-noise", type=float, metavar="F")
    parser.add_argument("--k-blur", type=float, metavar="F")
    parser.add_argument("--beta-alpha", type=float, metavar="F")
    parser.add_argument("--beta-beta", type=float, metavar="F")
    parser.add_argument("--mode-probs", type=_parse_mode_probs, metavar="F,F,F")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="datamoll", description="Data mollification training and analysis toolkit"
    )
    parser.add_argument("--version", action="version", version=f"datamoll {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a MOL1 container from images on disk")
    p.add_argument("src", help="directory of .csv/.raw images, or a MOL1 file to re-ingest")
    p.add_argument("--out", metavar="PATH", required=True, help="MOL1 output path")

    p = sub.add_parser("schedule-dump", help="write all schedule curves as CSV")
    _add_common(p, dataset=False)
    _add_schedule_flags(p)
    p.add_argument("--t-steps", type=int, metavar="N")

    p = sub.add_parser("mollify", help="export a mollified copy of a dataset")
    _add_common(p)
    _add_schedule_flags(p)

    p = sub.add_parser("train", help="train the desk-scale classifier")
    _add_common(p)
    _add_schedule_flags(p)
    p.add_argument("--mollify", type=_parse_bool, metavar="BOOL")
    p.add_argument("--loss", choices=("smoothed", "tempered", "normalized"))
    p.add_argument("--epochs", type=int, metavar="N")
    p.add_argument("--batch-size", type=int, metavar="N")
    p.add_argument("--lr", type=float, metavar="F")

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("params", help="parameter file written by train")
    _add_common(p)
    p.add_argument("--bins", type=int, metavar="N")
    p.add_argument("--corruptions", type=_parse_bool, metavar="BOOL")

    p = sub.add_parser("infocurve", help="PNG compression ratios over blur temperatures")
    _add_common(p)
    _add_schedule_flags(p)
    p.add_argument("--t-steps", type=int, metavar="N")

    p = sub.add_parser("spectra", help="mean DCT change per corruption kind")
    _add_common(p)

    return parser


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _check_config(value, default, path: str) -> None:
    """Raise DataError unless ``value`` has the keys and types of ``default``."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise DataError(f"config key {path!r} must be an object")
        for key, item in value.items():
            sub = f"{path}.{key}" if path else key
            if key not in default:
                raise DataError(f"unknown config key {sub!r}")
            _check_config(item, default[key], sub)
    elif isinstance(default, list):
        if not isinstance(value, list):
            raise DataError(f"config key {path!r} must be a list")
        for i, item in enumerate(value):
            _check_config(item, default[0], f"{path}[{i}]")
    elif not (value is None and default is None):
        expected = _NULLABLE[path.split(".")[-1]] if default is None else type(default)
        if type(value) not in _ACCEPTED[expected]:
            raise DataError(
                f"config key {path!r} must be of type {expected.__name__}, got {value!r}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise DataError(f"config key {path!r} must be finite, got {value!r}")


def effective_config(ns: argparse.Namespace) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    cfg = json.loads(json.dumps(_DEFAULTS))  # deep copy
    if getattr(ns, "config", None):
        path = Path(ns.config)
        if not path.exists():
            raise DataError(f"config file {path} does not exist")
        loaded = json.loads(path.read_text())
        if not isinstance(loaded, dict):
            raise DataError(f"config file {path} must contain a JSON object")
        _check_config(loaded, _DEFAULTS, "")
        cfg = _merge(cfg, loaded)
    # Each flag's argparse dest is the name of the config key it overrides.
    for section in (cfg, cfg["schedule"], cfg["train"]):
        for key in section:
            value = getattr(ns, key, None)
            if value is not None:
                section[key] = value
    return cfg


def config_hash(cfg: dict, command: str) -> str:
    payload = {"command": command, **cfg}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _schedule_from(cfg: dict, width: int | None) -> ScheduleConfig:
    s = cfg["schedule"]
    if s["sigma_max"] is None:
        # Resolved in place, so run.json records the value used.
        s["sigma_max"] = float(width) if width is not None else DEFAULT_SIGMA_MAX
    return ScheduleConfig(**s)


def _write_run_metadata(out_dir: Path, command: str, cfg: dict) -> str:
    digest = config_hash(cfg, command)
    payload = {
        "command": command,
        "config_hash": digest,
        "seed": cfg["seed"],
        "versions": {
            "datamoll": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "config": cfg,
    }
    write_text(out_dir / "run.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return digest


def _require_dataset(cfg: dict) -> Mol1Dataset:
    if not cfg.get("dataset"):
        raise DataError("this command needs --dataset (or a dataset entry in the config)")
    return load_mol1(cfg["dataset"])


def _t_grid(cfg: dict) -> list[float]:
    """``t_steps`` evenly spaced temperatures from 0 to 1."""
    t_steps = int(cfg["t_steps"])
    if t_steps < 2:
        raise DataError(f"t_steps must be >= 2, got {t_steps}")
    return [float(t) for t in np.linspace(0.0, 1.0, t_steps)]


def _float_cell(value: float) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue())


# ---------------------------------------------------------------- ingest


def _load_8bit_dir(src: Path) -> tuple[np.ndarray, np.ndarray]:
    """Read 8-bit images (.csv pixel grids or .raw blobs) plus labels.csv."""
    labels_file = src / "labels.csv"
    if not labels_file.exists():
        raise DataError(f"missing {labels_file}")
    labels_by_name: dict[str, int] = {}
    with open(labels_file, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() == "filename":
                continue
            if len(row) < 2:
                raise DataError(f"malformed labels row {row!r} in {labels_file}")
            labels_by_name[row[0].strip()] = int(row[1])
    shape_file = src / "shape.json"
    shape = json.loads(shape_file.read_text()) if shape_file.exists() else None

    names = sorted(
        p.name for p in src.iterdir() if p.suffix in (".csv", ".raw") and p.name != "labels.csv"
    )
    if not names:
        raise DataError(f"no .csv or .raw image files in {src}")
    missing = [n for n in names if n not in labels_by_name]
    if missing:
        raise DataError(f"images without labels: {', '.join(missing)}")
    orphans = [n for n in labels_by_name if n not in names]
    if orphans:
        raise DataError(f"labels without images: {', '.join(sorted(orphans))}")

    images, labels, bad = [], [], []
    for name in names:
        path = src / name
        if path.suffix == ".csv":
            grid = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
            channels = int(shape["channels"]) if shape else 1
            if grid.shape[1] % channels:
                bad.append(name)
                continue
            arr = grid.reshape(grid.shape[0], grid.shape[1] // channels, channels)
        else:
            if shape is None:
                raise DataError(f"{name} is raw 8-bit data but {src}/shape.json is missing")
            arr = np.frombuffer(path.read_bytes(), dtype=np.uint8)
            h, w, c = int(shape["height"]), int(shape["width"]), int(shape["channels"])
            if arr.size != h * w * c:
                bad.append(name)
                continue
            arr = arr.reshape(h, w, c).astype(np.int64)
        if np.any(arr < 0) or np.any(arr > 255):
            bad.append(name)
            continue
        images.append(arr)
        labels.append(labels_by_name[name])
    if bad:
        raise DataError(f"malformed image files: {', '.join(bad)}")
    shapes = {img.shape for img in images}
    if len(shapes) != 1:
        raise DataError(f"inconsistent image shapes: {sorted(shapes)}")
    return np.stack(images), np.asarray(labels, dtype=np.int64)


def cmd_ingest(ns: argparse.Namespace) -> int:
    src = Path(ns.src)
    out = Path(ns.out)
    if src.is_file():
        ds = load_mol1(src)
        raw = np.clip(
            ds.images * ds.stats.std + ds.stats.mean, 0.0, 1.0
        )
        pixels = np.round(raw * 255.0).astype(np.int64)
        labels = ds.labels
        num_classes = ds.num_classes
    elif src.is_dir():
        pixels, labels = _load_8bit_dir(src)
        num_classes = max(int(labels.max()) + 1, 2)
    else:
        raise DataError(f"{src} is neither a directory nor a MOL1 file")
    dataset = standardized_dataset(
        pixels.astype(np.float64) / 255.0, labels, num_classes, provenance=f"ingest:{src.name}"
    )
    save_mol1(dataset, out)
    print(
        f"wrote {out}: N={dataset.count} H={dataset.height} W={dataset.width} "
        f"C={dataset.channels} classes={dataset.num_classes}"
    )
    return 0


# ---------------------------------------------------------- schedule-dump


def cmd_schedule_dump(ns: argparse.Namespace) -> int:
    cfg = effective_config(ns)
    grid = _t_grid(cfg)
    schedule = _schedule_from(cfg, width=None)
    out_dir = Path(ns.out)
    rows = []
    for t in grid:
        alpha, sigma = alpha_sigma(t)
        sig_b = blur_sigma(t, schedule)
        rows.append(
            [
                _float_cell(t),
                _float_cell(alpha),
                _float_cell(sigma),
                _float_cell(snr(t)),
                _float_cell(gamma_noise(t, schedule.k_noise)),
                _float_cell(sig_b),
                _float_cell(dissipation_time(sig_b)),
                _float_cell(gamma_blur(t, schedule.k_blur)),
            ]
        )
    _write_csv(
        out_dir / "schedules.csv",
        ["t", "alpha", "sigma", "snr", "gamma_noise", "sigma_b", "tau", "gamma_blur"],
        rows,
    )
    _write_run_metadata(out_dir, "schedule-dump", cfg)
    return 0


# ----------------------------------------------------------------- mollify


def cmd_mollify(ns: argparse.Namespace) -> int:
    cfg = effective_config(ns)
    dataset = _require_dataset(cfg)
    schedule = _schedule_from(cfg, dataset.width)
    out_dir = Path(ns.out)
    samples = mollify_batch(dataset.images, schedule, int(cfg["seed"]))
    digest = _write_run_metadata(out_dir, "mollify", cfg)
    mollified = Mol1Dataset(
        images=samples.image,
        labels=dataset.labels,
        num_classes=dataset.num_classes,
        stats=dataset.stats,
        provenance=f"mollify:{digest}",
    )
    save_mol1(mollified, out_dir / "mollified.mol1")
    rows = [
        [str(i), mode, _float_cell(t), _float_cell(gamma)]
        for i, (mode, t, gamma) in enumerate(zip(samples.mode, samples.t, samples.gamma))
    ]
    _write_csv(out_dir / "mollify.csv", ["index", "mode", "t", "gamma"], rows)
    return 0


# ------------------------------------------------------------------- train


def cmd_train(ns: argparse.Namespace) -> int:
    cfg = effective_config(ns)
    dataset = _require_dataset(cfg)
    schedule = _schedule_from(cfg, dataset.width)
    t = dict(cfg["train"])
    train_cfg = TrainConfig(schedule=schedule, seed=cfg["seed"], lr0=t.pop("lr"), **t)
    out_dir = Path(ns.out)
    digest = _write_run_metadata(out_dir, "train", cfg)
    params, report = train(dataset, train_cfg)
    save_params(params, out_dir / "params.bin", train_cfg.seed, digest)
    write_text(out_dir / "train_report.csv", report.to_csv())
    print(f"trained {train_cfg.epochs} epochs; final loss {report.epochs[-1].mean_loss:.6f}")
    return 0


# -------------------------------------------------------------------- eval


def cmd_eval(ns: argparse.Namespace) -> int:
    cfg = effective_config(ns)
    dataset = _require_dataset(cfg)
    params, _header = load_params(ns.params)
    out_dir = Path(ns.out)
    digest = _write_run_metadata(out_dir, "eval", cfg)
    bins = cfg["bins"]
    records = [predict_batch(params, dataset, tag="clean")]
    clean_report = evaluate(records[0], num_bins=bins)
    corrupted_report = None
    if cfg["corruptions"]:
        for tag, batch in corruption_grid(dataset.images, cfg["seed"]):
            records.append(predict_records(params, batch, dataset.labels, tag=tag))
        corrupted_report = evaluate(np.concatenate(records[1:]), num_bins=bins)
    write_records_csv(np.concatenate(records), out_dir / "records.csv")
    payload = {"config_hash": digest, "seed": cfg["seed"], "clean": clean_report.to_dict()}
    if corrupted_report is not None:
        payload["corrupted"] = corrupted_report.to_dict()
    write_text(out_dir / "eval.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    text = format_report_table(clean_report, title="clean")
    if corrupted_report is not None:
        text += "\n" + format_report_table(corrupted_report, title="corrupted(all)")
    write_text(out_dir / "eval.txt", text)
    print(text, end="")
    return 0


# --------------------------------------------------------------- infocurve


def cmd_infocurve(ns: argparse.Namespace) -> int:
    cfg = effective_config(ns)
    dataset = _require_dataset(cfg)
    schedule = _schedule_from(cfg, dataset.width)
    out_dir = Path(ns.out)
    points = info_curve(dataset.images, dataset.stats, schedule, _t_grid(cfg))
    rows = [
        [_float_cell(p.t), _float_cell(p.sigma_b), _float_cell(p.mean_ratio)] for p in points
    ]
    _write_csv(out_dir / "infocurve.csv", ["t", "sigma_b", "mean_ratio"], rows)
    _write_run_metadata(out_dir, "infocurve", cfg)
    return 0


# ----------------------------------------------------------------- spectra


def cmd_spectra(ns: argparse.Namespace) -> int:
    cfg = effective_config(ns)
    dataset = _require_dataset(cfg)
    out_dir = Path(ns.out)
    annuli_rows = []
    for kind in CORRUPTION_KINDS:
        corrupted = corruption_cell(dataset.images, kind, _SPECTRA_SEVERITY, cfg["seed"])
        delta = spectral_delta(dataset.images, corrupted, tag=kind)
        grid_rows = [[_float_cell(v) for v in row] for row in delta.grid]
        _write_csv(
            out_dir / f"spectral_{kind}.csv",
            [f"w{j}" for j in range(delta.grid.shape[1])],
            grid_rows,
        )
        centers, means = annulus_means(delta.grid)
        for b, (center, mean) in enumerate(zip(centers, means)):
            annuli_rows.append([kind, str(b), _float_cell(center), _float_cell(mean)])
    _write_csv(
        out_dir / "spectra_annuli.csv",
        ["kind", "band", "center", "mean_delta"],
        annuli_rows,
    )
    _write_run_metadata(out_dir, "spectra", cfg)
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "schedule-dump": cmd_schedule_dump,
    "mollify": cmd_mollify,
    "train": cmd_train,
    "eval": cmd_eval,
    "infocurve": cmd_infocurve,
    "spectra": cmd_spectra,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[ns.command](ns)
    except (TrainingDivergedError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())
