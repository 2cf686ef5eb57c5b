"""Command-line interface wiring the library into reproducible runs.

Subcommands: ``ingest`` (8-bit images or CSV pixel grids -> MOL1 container),
``schedule-dump`` (all schedule curves as CSV), ``mollify`` (export a
mollified copy of a dataset), ``train``, ``eval`` (clean and, optionally,
the 4-corruption x 5-severity grid), ``infocurve`` (PNG compression ratios
over blur temperatures), and ``spectra`` (per-corruption DCT change grids).

``_COMMANDS`` gives each command but ``ingest`` (which reads no setting)
its handler and the top-level config keys it reads.  Those keys fix the
command's flags, and only they are echoed into the output directory's
``run.json`` and hashed into its config hash, which takes the dataset by
content, not by path.  All commands write outputs atomically.  Exit codes:
0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import io
import json
import math
import sys
import warnings
from dataclasses import MISSING, astuple, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .analysis import (
    CORRUPTION_KINDS,
    annulus_means,
    corruption_cell,
    corruption_grid,
    info_curve,
    quantize_for_png,
    spectral_delta,
)
from .errors import DataError, TrainingDivergedError
from .ioutil import read_json_object, write_csv, write_json, write_text
from .metrics import ECE_BINS, evaluate, format_report_table, write_records_csv
from .mol1 import Mol1Dataset, load_mol1, manifest_path, save_mol1
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
    LOSS_KINDS,
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
        name: value
        for name, value in _field_defaults(TrainConfig).items()
        if name not in ("schedule", "seed")
    },
    "bins": ECE_BINS,
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


def _parse_finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def parse_u64(text: str) -> int:
    try:
        value = int(text)
        if 0 <= value < 2**64:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer in [0, 2**64), got {text!r}")


def parse_positive_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _parse_mode_probs(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated probabilities")
    return [_parse_finite(p) for p in parts]


_N = {"type": int, "metavar": "N"}
_F = {"type": _parse_finite, "metavar": "F"}
_BOOL = {"type": _parse_bool, "metavar": "BOOL"}
# The flags of each key; a flag's argparse dest is the name of the key it sets.
_FLAGS = {
    "seed": {"--seed": {"type": parse_u64, "metavar": "U64", "help": "run seed"}},
    "dataset": {"--dataset": {"metavar": "PATH", "help": "MOL1 dataset path"}},
    "schedule": {
        **dict.fromkeys(("--k-noise", "--k-blur", "--beta-alpha", "--beta-beta"), _F),
        "--mode-probs": {"type": _parse_mode_probs, "metavar": "F,F,F"},
    },
    "train": {
        "--mollify": _BOOL,
        "--loss": {"choices": LOSS_KINDS},
        **dict.fromkeys(("--epochs", "--batch-size"), _N),
        "--lr": _F,
    },
    "bins": {"--bins": _N},
    "corruptions": {"--corruptions": _BOOL},
    "t_steps": {"--t-steps": _N},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="datamoll", description="Data mollification training and analysis toolkit"
    )
    parser.add_argument("--version", action="version", version=f"datamoll {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a MOL1 container from images on disk")
    p.add_argument("src", help="directory of .csv/.raw images, or a MOL1 file to re-ingest")
    p.add_argument("--out", metavar="PATH", required=True, help="MOL1 output path")

    for command, (handler, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        if command == "eval":
            p.add_argument("params", help="parameter file written by train")
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        p.add_argument("--out", metavar="DIR", required=True, help="output directory")
        for key in keys:
            for flag, options in _FLAGS[key].items():
                p.add_argument(flag, **options)
    return parser


def _check_config(value, default, path: str):
    """``value`` laid over ``default``; a DataError unless it has the keys and types of
    ``default``.  The result shares no dict or list with ``default``."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise DataError(f"config key {path!r} must be an object")
        out = copy.deepcopy(default)
        for key, item in value.items():
            sub = f"{path}.{key}" if path else key
            if key not in default:
                raise DataError(f"unknown config key {sub!r}")
            out[key] = _check_config(item, default[key], sub)
        return out
    if isinstance(default, list):
        if not isinstance(value, list):
            raise DataError(f"config key {path!r} must be a list")
        return [_check_config(item, default[0], f"{path}[{i}]") for i, item in enumerate(value)]
    if not (value is None and default is None):
        expected = _NULLABLE[path.split(".")[-1]] if default is None else type(default)
        if type(value) not in _ACCEPTED[expected]:
            raise DataError(
                f"config key {path!r} must be of type {expected.__name__}, got {value!r}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise DataError(f"config key {path!r} must be finite, got {value!r}")
        if path == "seed" and not 0 <= value < 2**64:
            raise DataError(f"config key 'seed' must lie in [0, 2**64), got {value!r}")
    return value


def effective_config(ns: argparse.Namespace) -> dict:
    """The keys ``ns.command`` reads: defaults, overlaid by the config file, then by flags."""
    loaded = {}
    if ns.config:
        path = Path(ns.config)
        if not path.exists():
            raise DataError(f"config file {path} does not exist")
        loaded = read_json_object(path)
    cfg = _check_config(loaded, _DEFAULTS, "")
    cfg = {key: cfg[key] for key in _COMMANDS[ns.command][1]}
    for section in (cfg, *(value for value in cfg.values() if isinstance(value, dict))):
        for key in section:
            value = getattr(ns, key, None)
            if value is not None:
                section[key] = value
    return cfg


def dataset_sha256(path: str | Path) -> str:
    """SHA-256 of a MOL1 container's bytes followed by its manifest's."""
    digest = hashlib.sha256(Path(path).read_bytes())
    digest.update(manifest_path(path).read_bytes())
    return digest.hexdigest()


def config_hash(cfg: dict, command: str, dataset_digest: str | None = None) -> str:
    """SHA-256 of the command and its config, the dataset given by its content digest."""
    payload = {"command": command, **cfg}
    if "dataset" in cfg:
        payload["dataset"] = dataset_digest
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Run:
    """What a command reads, resolved and checked before it runs."""

    out: Path
    cfg: dict  # the command's keys of the effective config
    config_hash: str
    dataset: Mol1Dataset | None
    schedule: ScheduleConfig | None
    train: TrainConfig | None
    t_grid: list[float] | None


def start_run(ns: argparse.Namespace) -> Run:
    """Resolve and check the settings ``ns.command`` reads, then write run.json."""
    cfg = effective_config(ns)
    dataset = digest = schedule = train_cfg = t_grid = None
    if "dataset" in cfg:
        if not cfg["dataset"]:
            raise DataError("this command needs --dataset (or a dataset entry in the config)")
        dataset = load_mol1(cfg["dataset"])
        digest = dataset_sha256(cfg["dataset"])
    if "schedule" in cfg:
        s = cfg["schedule"]
        if s["sigma_max"] is None:
            # Resolved in place, so run.json records the value used.
            s["sigma_max"] = float(dataset.width) if dataset else DEFAULT_SIGMA_MAX
        schedule = ScheduleConfig(**s)
    if "train" in cfg:
        train_cfg = TrainConfig(schedule=schedule, seed=cfg["seed"], **cfg["train"])
    if cfg.get("bins", 1) < 1:
        raise DataError(f"bins must be >= 1, got {cfg['bins']}")
    if "t_steps" in cfg:
        if cfg["t_steps"] < 2:
            raise DataError(f"t_steps must be >= 2, got {cfg['t_steps']}")
        t_grid = [float(t) for t in np.linspace(0.0, 1.0, cfg["t_steps"])]
    run = Run(
        Path(ns.out), cfg, config_hash(cfg, ns.command, digest), dataset, schedule, train_cfg, t_grid
    )
    meta = {
        "command": ns.command,
        "config_hash": run.config_hash,
        "dataset_sha256": digest,
        "seed": cfg.get("seed"),
        "versions": {
            "datamoll": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "config": cfg,
    }
    meta = {key: value for key, value in meta.items() if value is not None}
    write_json(run.out / "run.json", meta)
    return run


# ---------------------------------------------------------------- ingest


def _read_shape(shape_file: Path, keys: tuple[str, ...]) -> list[int]:
    """The positive integers under ``keys`` in the JSON object of ``shape_file``."""
    shape = read_json_object(shape_file)
    values = [shape.get(key) for key in keys]
    for key, value in zip(keys, values):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise DataError(f"{shape_file}: {key!r} must be a positive integer, got {value!r}")
    return values


def _read_labels(labels_file: Path) -> dict[str, int]:
    """File name -> class from labels.csv, which may have a header row."""
    if not labels_file.exists():
        raise DataError(f"missing {labels_file}")
    raw = labels_file.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(
            f"{labels_file} row {row}: not UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None
    labels: dict[str, int] = {}
    for line, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not row or row[0].strip().lower() == "filename":
            continue
        where = f"{labels_file} row {line}"
        if len(row) < 2:
            raise DataError(f"{where}: malformed row {row!r}")
        name = row[0].strip()
        if name in labels:
            raise DataError(f"{where}: {name} is listed twice")
        try:
            labels[name] = int(row[1])
        except ValueError:
            raise DataError(f"{where}: bad label {row[1]!r}") from None
        if labels[name] < 0:
            raise DataError(f"{where}: label {labels[name]} is negative")
        if labels[name] > 2**32 - 2:  # the class count, label + 1, is a MOL1 u32
            raise DataError(f"{where}: label {labels[name]} is above {2**32 - 2}")
    return labels


def _read_image(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    """One 8-bit image as (H, W, C) int64: the bytes of a .raw image of ``shape``,
    or a .csv grid with ``shape[-1]`` channels per pixel."""
    try:
        if path.suffix == ".csv":
            with warnings.catch_warnings():
                # An empty grid is reported below, as a file without pixels.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                grid = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
            if grid.size == 0:
                raise ValueError("no pixels")
            image = grid.reshape(grid.shape[0], -1, shape[-1])
        else:
            image = np.frombuffer(path.read_bytes(), dtype=np.uint8).reshape(shape)
    except ValueError as exc:
        raise DataError(f"malformed image file {path}: {exc}") from None
    if np.any(image < 0) or np.any(image > 255):
        raise DataError(f"malformed image file {path}: pixels must lie in [0, 255]")
    return image.astype(np.int64)


def _load_8bit_dir(src: Path) -> tuple[np.ndarray, np.ndarray]:
    """Read 8-bit images (.csv pixel grids or .raw blobs) plus labels.csv."""
    labels_by_name = _read_labels(src / "labels.csv")
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
    shape_file = src / "shape.json"
    raw_names = [n for n in names if n.endswith(".raw")]
    if raw_names and not shape_file.exists():
        raise DataError(f"{raw_names[0]} is raw 8-bit data but {shape_file} is missing")
    shape = (1,)
    if raw_names:
        shape = tuple(_read_shape(shape_file, ("height", "width", "channels")))
    elif shape_file.exists():
        shape = tuple(_read_shape(shape_file, ("channels",)))
    images = [_read_image(src / name, shape) for name in names]
    shapes = {img.shape for img in images}
    if len(shapes) != 1:
        raise DataError(f"inconsistent image shapes: {sorted(shapes)}")
    return np.stack(images), np.asarray([labels_by_name[n] for n in names], dtype=np.int64)


def cmd_ingest(ns: argparse.Namespace) -> int:
    src = Path(ns.src)
    out = Path(ns.out)
    if src.is_file():
        ds = load_mol1(src)
        pixels = quantize_for_png(ds.images, ds.stats)
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


def cmd_schedule_dump(ns: argparse.Namespace, run: Run) -> int:
    """write all schedule curves as CSV"""
    schedule = run.schedule
    rows = []
    for t in run.t_grid:
        alpha, sigma = alpha_sigma(t)
        sig_b = blur_sigma(t, schedule)
        values = [t, alpha, sigma, snr(t), gamma_noise(t, schedule.k_noise)]
        values += [sig_b, dissipation_time(sig_b), gamma_blur(t, schedule.k_blur)]
        rows.append(values)
    write_csv(
        run.out / "schedules.csv",
        ["t", "alpha", "sigma", "snr", "gamma_noise", "sigma_b", "tau", "gamma_blur"],
        list(zip(*rows)),
    )
    return 0


# ----------------------------------------------------------------- mollify


def cmd_mollify(ns: argparse.Namespace, run: Run) -> int:
    """export a mollified copy of a dataset"""
    dataset = run.dataset
    samples = mollify_batch(dataset.images, run.schedule, int(run.cfg["seed"]))
    mollified = Mol1Dataset(
        images=samples.image,
        labels=dataset.labels,
        num_classes=dataset.num_classes,
        stats=dataset.stats,
        provenance=f"mollify:{run.config_hash}",
    )
    save_mol1(mollified, run.out / "mollified.mol1")
    write_csv(
        run.out / "mollify.csv",
        ["index", "mode", "t", "gamma"],
        [np.arange(len(samples)), samples.mode, samples.t, samples.gamma],
    )
    return 0


# ------------------------------------------------------------------- train


def cmd_train(ns: argparse.Namespace, run: Run) -> int:
    """train the desk-scale classifier"""
    params, report = train(run.dataset, run.train)
    save_params(params, run.out / "params.bin", run.train.seed, run.config_hash)
    write_csv(
        run.out / "train_report.csv",
        ["epoch", "loss", "lr", "seconds"],
        list(zip(*map(astuple, report.epochs))),
    )
    print(f"trained {run.train.epochs} epochs; final loss {report.epochs[-1].mean_loss:.6f}")
    return 0


# -------------------------------------------------------------------- eval


def cmd_eval(ns: argparse.Namespace, run: Run) -> int:
    """evaluate a trained model"""
    dataset, cfg = run.dataset, run.cfg
    params, _header = load_params(ns.params)
    bins = cfg["bins"]
    records = [predict_batch(params, dataset, tag="clean")]
    clean_report = evaluate(records[0], num_bins=bins)
    corrupted_report = None
    if cfg["corruptions"]:
        for tag, batch in corruption_grid(dataset.images, cfg["seed"]):
            records.append(predict_records(params, batch, dataset.labels, tag=tag))
        corrupted_report = evaluate(np.concatenate(records[1:]), num_bins=bins)
    write_records_csv(np.concatenate(records), run.out / "records.csv")
    payload = {"config_hash": run.config_hash, "seed": cfg["seed"], "clean": clean_report.to_dict()}
    if corrupted_report is not None:
        payload["corrupted"] = corrupted_report.to_dict()
    write_json(run.out / "eval.json", payload)
    text = format_report_table(clean_report, title="clean")
    if corrupted_report is not None:
        text += "\n" + format_report_table(corrupted_report, title="corrupted(all)")
    write_text(run.out / "eval.txt", text)
    print(text, end="")
    return 0


# --------------------------------------------------------------- infocurve


def cmd_infocurve(ns: argparse.Namespace, run: Run) -> int:
    """PNG compression ratios over blur temperatures"""
    dataset = run.dataset
    points = info_curve(dataset.images, dataset.stats, run.schedule, run.t_grid)
    write_csv(
        run.out / "infocurve.csv",
        ["t", "sigma_b", "mean_ratio"],
        list(zip(*map(astuple, points))),
    )
    return 0


# ----------------------------------------------------------------- spectra


def cmd_spectra(ns: argparse.Namespace, run: Run) -> int:
    """mean DCT change per corruption kind"""
    images = run.dataset.images
    annuli = []
    for kind in CORRUPTION_KINDS:
        corrupted = corruption_cell(images, kind, _SPECTRA_SEVERITY, run.cfg["seed"])
        grid = spectral_delta(images, corrupted)
        centers, means = annulus_means(grid)
        write_csv(run.out / f"spectral_{kind}.csv", [f"w{j}" for j in range(grid.shape[1])], grid.T)
        annuli.append(([kind] * len(centers), np.arange(len(centers)), centers, means))
    write_csv(
        run.out / "spectra_annuli.csv",
        ["kind", "band", "center", "mean_delta"],
        [np.concatenate(column) for column in zip(*annuli)],
    )
    return 0


# Each command that reads settings: its handler, whose docstring is its help
# line, and the top-level config keys it reads.  The keys pick the command's
# flags, and only they go into run.json and the config hash; a shared config
# file may set the other keys too.
_COMMANDS = {
    "schedule-dump": (cmd_schedule_dump, ("schedule", "t_steps")),
    "mollify": (cmd_mollify, ("seed", "dataset", "schedule")),
    "train": (cmd_train, ("seed", "dataset", "schedule", "train")),
    "eval": (cmd_eval, ("seed", "dataset", "bins", "corruptions")),
    "infocurve": (cmd_infocurve, ("dataset", "schedule", "t_steps")),
    "spectra": (cmd_spectra, ("seed", "dataset")),
}


def exit_code(run: Callable[[], int]) -> int:
    """``run()``, or the exit code of the library error it raises, printed as ``error: ...``."""
    try:
        return run()
    except (TrainingDivergedError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.command == "ingest":
        return exit_code(lambda: cmd_ingest(ns))
    return exit_code(lambda: _COMMANDS[ns.command][0](ns, start_run(ns)))


def console_main() -> None:
    sys.exit(main())
