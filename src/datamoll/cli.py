"""Command-line interface wiring the library into reproducible runs.

Subcommands: ``ingest`` (8-bit images or CSV pixel grids -> MOL1 container),
``make-datasets`` (the desk-scale texture splits and 1/f fractal set),
``schedule-dump`` (all schedule curves as CSV), ``mollify`` (export a
mollified copy of a dataset), ``train``, ``eval`` (clean and, optionally,
the 4-corruption x 5-severity grid), ``infocurve`` (PNG compression ratios
over blur temperatures), ``spectra`` (per-corruption DCT change grids), and
``study`` (the mollified-vs-baseline robustness comparison over seeds).

``_COMMANDS`` gives each command but ``ingest`` (which reads no setting)
its handler and the settings it reads.  Those settings fix the command's
flags, and only they are echoed into the output directory's
``run.json`` and hashed into its config hash, which takes the dataset by
content, not by path.  All commands write outputs atomically.  Exit codes:
0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
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
from .ioutil import (
    check_value, read_csv_rows, read_float, read_int, read_json_object, write_csv, write_json,
    write_text,
)
from .metrics import ECE_BINS, MAX_BINS, evaluate, format_report_table, write_records_csv
from .mol1 import MAX_CLASSES, Mol1Dataset, load_mol1, manifest_path, save_mol1
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
from .streams import derive_seed
from .study import ARMS, TEST_COUNT, TRAIN_COUNT, WIDTH, StudyResult, aggregate, texture_splits
from .synth import fractal_textures, standardized_dataset
from .trainer import (
    LOSS_KINDS, MlpParams, TrainConfig, load_params, predict_batch, predict_records, save_params,
    train,
)

# sigma_max for commands that have no dataset to take a width from.
DEFAULT_SIGMA_MAX = 32.0
MAX_T_STEPS = 2**53  # the most temperature grid points whose indices float64 holds exactly
_SPECTRA_SEVERITY = 3
# Sub-seed tags of the fractal set and the study's corruption grid; no run draws both.
_TAG_FRACTAL = _TAG_CORRUPTIONS = 103


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
    "seeds": [0, 1, 2],
    "train_count": TRAIN_COUNT,
    "test_count": TEST_COUNT,
    "fractal_count": 256,
}

_COUNTS = ("train_count", "test_count", "fractal_count")
# The kind (see ioutil.KINDS) a config value must be: by its key where the
# default is null or the kind is narrower than its type, else by the default's type.
_KIND_AT = {
    "seed": "an integer in [0, 2**64)",
    "dataset": "a string",
    "schedule.sigma_max": "a finite number",
    "schedule.mode_probs": "a list of finite numbers",
    "seeds": "a non-empty list of integers in [0, 2**64)",
    **dict.fromkeys(_COUNTS, "a positive integer"),
}
_KIND_OF = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


def _flag_type(kind: str, parse: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse type: ``parse`` of a flag's text; its DataError is a usage error
    ``expected <kind>, got '<text>'``."""

    def convert(text: str):
        try:
            return parse(text)
        except DataError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None

    return convert


def _int_flag(low: int) -> Callable[[str], int]:
    """An argparse type: an integer in [``low``, 2**64), read as an integer cell is."""
    kind = f"an integer in [{low}, 2**64)"
    return _flag_type(kind, lambda text: read_int("flag", text, low, 2**64 - 1))


_BOOLS = dict.fromkeys(("true", "1", "yes", "on"), True)
_BOOLS |= dict.fromkeys(("false", "0", "no", "off"), False)
parse_u64 = _int_flag(0)
parse_positive_int = _int_flag(1)
_finite = _flag_type("a finite number", lambda text: read_float("flag", text))
_bool = _flag_type(
    "a boolean", lambda text: check_value("flag", _BOOLS.get(text.strip().lower()), "a boolean")
)


def _parse_mode_probs(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated probabilities")
    return [_finite(p) for p in parts]


_seeds = _flag_type(
    _KIND_AT["seeds"], lambda text: [read_int("flag", s, 0, 2**64 - 1) for s in text.split(",")]
)
_N = {"type": parse_u64, "metavar": "N"}
_F = {"type": _finite, "metavar": "F"}
_BOOL = {"type": _bool, "metavar": "BOOL"}
# The flag of each setting that has one is ``--`` and the setting's name with
# dashes, its argparse dest the setting (see _COMMANDS).
_FLAGS = {
    "seed": {"type": parse_u64, "metavar": "U64", "help": "run seed"},
    "dataset": {"metavar": "PATH", "help": "MOL1 dataset path"},
    **{f"schedule.{name}": _F for name in ("k_noise", "k_blur", "beta_alpha", "beta_beta")},
    "schedule.mode_probs": {"type": _parse_mode_probs, "metavar": "F,F,F"},
    "train.mollify": _BOOL,
    "train.loss": {"choices": LOSS_KINDS},
    **{f"train.{name}": _N for name in ("epochs", "batch_size")},
    "train.lr": _F,
    "bins": _N,
    "corruptions": _BOOL,
    "t_steps": _N,
    "seeds": {"type": _seeds, "metavar": "U64,...", "help": "comma-separated seed list"},
    **dict.fromkeys(_COUNTS, {"type": parse_positive_int, "metavar": "N"}),
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
        for leaf in keys:
            if leaf in _FLAGS:
                flag = "--" + leaf.split(".")[-1].replace("_", "-")
                p.add_argument(flag, dest=leaf, **_FLAGS[leaf])
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
    if value is None and default is None:
        return None
    kind = _KIND_AT.get(path) or _KIND_OF[type(default)]
    value = check_value(f"config key {path!r}", value, kind)
    # A float setting's integer is recorded as its flag's float: one value, one config hash.
    if kind == "a finite number":
        return float(value)
    if kind == "a list of finite numbers":
        return [float(v) for v in value]
    return value


def effective_config(ns: argparse.Namespace) -> dict:
    """The settings ``ns.command`` reads: defaults, overlaid by the config file, then by flags."""
    loaded = {}
    if ns.config:
        path = Path(ns.config)
        if not path.exists():
            raise DataError(f"config file {path} does not exist")
        loaded = read_json_object(path)
    full = _check_config(loaded, _DEFAULTS, "")
    cfg = {}
    for leaf in _COMMANDS[ns.command][1]:
        section, _, name = leaf.rpartition(".")
        src, dst = (full[section], cfg.setdefault(section, {})) if section else (full, cfg)
        flag = getattr(ns, leaf, None)
        dst[name] = src[name] if flag is None else flag
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
        train_cfg = TrainConfig(schedule=schedule, seed=cfg.get("seed", 0), **cfg["train"])
    if cfg.get("bins", 1) < 1:
        raise DataError(f"bins must be >= 1, got {cfg['bins']}")
    if cfg.get("bins", 1) > MAX_BINS:
        raise DataError(f"bins must be <= 2**53, got {cfg['bins']}")
    if "t_steps" in cfg:
        if cfg["t_steps"] < 2:
            raise DataError(f"t_steps must be >= 2, got {cfg['t_steps']}")
        if cfg["t_steps"] > MAX_T_STEPS:
            raise DataError(f"t_steps must be <= 2**53, got {cfg['t_steps']}")
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


def _read_labels(labels_file: Path) -> dict[str, int]:
    """File name -> class from labels.csv, which may start with a BOM and have a header row."""
    if not labels_file.exists():
        raise DataError(f"missing {labels_file}")
    labels: dict[str, int] = {}
    for line, row in read_csv_rows(labels_file):
        if not row or row[0].strip().lower() == "filename":
            continue
        where = f"{labels_file} row {line}"
        if len(row) != 2:
            raise DataError(f"{where}: malformed row {row!r}")
        name = row[0].strip()
        if name in labels:
            raise DataError(f"{where}: {name} is listed twice")
        # The class count, the largest label + 1, must fit the MOL1 header.
        labels[name] = read_int(f"{where}: label", row[1], 0, MAX_CLASSES - 1)
    return labels


def _read_image(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    """One 8-bit image as (H, W, C) int64: the bytes of a .raw image of ``shape``,
    or a .csv grid with ``shape[-1]`` channels per pixel, blank rows skipped."""
    if path.suffix != ".csv":
        try:
            return np.frombuffer(path.read_bytes(), dtype=np.uint8).reshape(shape).astype(np.int64)
        except ValueError as exc:
            raise DataError(f"malformed image file {path}: {exc}") from None
    rows = [(line, row) for line, row in read_csv_rows(path) if row]
    if not rows:
        raise DataError(f"malformed image file {path}: no pixels")
    width = len(rows[0][1])
    if width % shape[-1]:
        raise DataError(f"malformed image file {path}: {width} values a row, {shape[-1]} channels")
    grid = []
    for line, row in rows:
        where = f"{path} row {line}"
        if len(row) != width:
            raise DataError(f"{where}: {len(row)} values, where the first row has {width}")
        grid.append([read_int(f"{where}: pixel", cell, 0, 255) for cell in row])
    return np.array(grid, dtype=np.int64).reshape(len(grid), -1, shape[-1])


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
    if raw_names or shape_file.exists():
        given = read_json_object(shape_file)
        keys = ("height", "width", "channels") if raw_names else ("channels",)
        shape = tuple(
            check_value(f"{shape_file}: {key!r}", given.get(key), "a positive integer")
            for key in keys
        )
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


# ----------------------------------------------------------- make-datasets


def cmd_make_datasets(ns: argparse.Namespace, run: Run) -> int:
    """write the study's texture splits and a 1/f fractal set as MOL1 files"""
    cfg, out = run.cfg, run.out
    # All three datasets before any file, so a failure leaves no .mol1 behind.
    train_ds, test_ds = texture_splits(cfg["seed"], cfg["train_count"], cfg["test_count"])
    count = cfg["fractal_count"]
    fractal = fractal_textures(count, 32, 32, seed=derive_seed(cfg["seed"], _TAG_FRACTAL))
    labels = np.zeros(count, dtype=np.int64)
    fractal_ds = standardized_dataset(fractal, labels, 2, provenance=f"fractal seed={cfg['seed']}")
    save_mol1(train_ds, out / "textures_train.mol1")
    save_mol1(test_ds, out / "textures_test.mol1")
    save_mol1(fractal_ds, out / "fractal.mol1")
    print(f"wrote {out}/textures_train.mol1 ({cfg['train_count']} images)")
    print(f"wrote {out}/textures_test.mol1 ({cfg['test_count']} images)")
    print(f"wrote {out}/fractal.mol1 ({count} images)")
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


def evaluate_model(
    params: MlpParams, dataset: Mol1Dataset, cells, num_bins: int = ECE_BINS
) -> tuple[np.recarray, dict[str, dict]]:
    """Records of ``params`` on ``dataset`` (tag ``clean``), then on each ``(tag, images)``
    cell, and their reports: ``clean``, plus ``corrupted`` over all cells if there are any."""
    records = [predict_batch(params, dataset, tag="clean")]
    reports = {"clean": evaluate(records[0], num_bins=num_bins)}
    records += [predict_records(params, batch, dataset.labels, tag=tag) for tag, batch in cells]
    if len(records) > 1:
        reports["corrupted"] = evaluate(np.concatenate(records[1:]), num_bins=num_bins)
    return np.concatenate(records), reports


def cmd_eval(ns: argparse.Namespace, run: Run) -> int:
    """evaluate a trained model"""
    dataset, cfg = run.dataset, run.cfg
    params, _header = load_params(ns.params)
    cells = corruption_grid(dataset.images, cfg["seed"]) if cfg["corruptions"] else ()
    records, reports = evaluate_model(params, dataset, cells, cfg["bins"])
    write_records_csv(records, run.out / "records.csv")
    payload = {"config_hash": run.config_hash, "seed": cfg["seed"], **reports}
    write_json(run.out / "eval.json", payload)
    titles = {"clean": "clean", "corrupted": "corrupted(all)"}
    text = "\n".join(format_report_table(rep, titles[split]) for split, rep in reports.items())
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


# ------------------------------------------------------------------- study


def run_study(
    seed: int, train_count: int = TRAIN_COUNT, test_count: int = TEST_COUNT,
    epochs: int = TrainConfig.epochs,
) -> StudyResult:
    """Train one model per arm of ``study.ARMS``; evaluate each on one shared corruption grid."""
    ds_train, ds_test = texture_splits(seed, train_count, test_count)
    schedule = ScheduleConfig.for_width(WIDTH)
    cells = list(corruption_grid(ds_test.images, derive_seed(seed, _TAG_CORRUPTIONS)))
    result = {}
    for arm, settings in ARMS.items():
        cfg = TrainConfig(schedule=schedule, epochs=epochs, seed=seed, **settings)
        params, _report = train(ds_train, cfg)
        result[arm] = evaluate_model(params, ds_test, cells)[1]
    return result


def cmd_study(ns: argparse.Namespace, run: Run) -> int:
    """train and evaluate each arm of study.ARMS over seeds"""
    cfg = run.cfg
    results = []
    print(f"{'seed':>4}  {'arm':<9}  {'clean':>6}  {'corr':>6}  {'ece':>6}  {'nll':>6}")
    for seed in cfg["seeds"]:
        result = run_study(seed, cfg["train_count"], cfg["test_count"], run.train.epochs)
        results.append(result)
        for arm, reports in result.items():
            clean, corrupted = reports["clean"], reports["corrupted"]
            print(
                f"{seed:>4}  {arm:<9}  {clean['error']:6.3f}  {corrupted['error']:6.3f}"
                f"  {corrupted['ece']:6.3f}  {corrupted['nll']:6.3f}"
            )
    summary = aggregate(results)
    reduction = summary["relative_error_reduction"]
    print()
    print(f"mean corrupted error: {summary['baseline_corrupted_error']:.3f} -> "
          f"{summary['mollified_corrupted_error']:.3f} "
          f"({'n/a' if reduction is None else f'{reduction:.1%}'} relative reduction)")
    print(f"mean clean error:     {summary['baseline_clean_error']:.3f} -> "
          f"{summary['mollified_clean_error']:.3f}")
    print(f"mean corrupted ECE:   {summary['baseline_corrupted_ece']:.3f} -> "
          f"{summary['mollified_corrupted_ece']:.3f}")
    write_json(run.out / "study.json", summary)
    return 0


_SCHEDULE = tuple(f"schedule.{name}" for name in _DEFAULTS["schedule"])
_TRAIN = tuple(f"train.{name}" for name in _DEFAULTS["train"])
_SIGMAS = ("schedule.sigma_max", "schedule.sigma_min")
# Each command that reads settings: its handler, whose docstring is its help
# line, and the settings it reads, each a top-level key or a ``section.name``.
# They pick the command's flags, and only they go into run.json and the
# config hash; a shared config file may set the other keys too.
_COMMANDS = {
    "make-datasets": (cmd_make_datasets, ("seed", *_COUNTS)),
    "schedule-dump": (
        cmd_schedule_dump, (*_SIGMAS, "schedule.k_noise", "schedule.k_blur", "t_steps")
    ),
    "mollify": (cmd_mollify, ("seed", "dataset", *_SCHEDULE)),
    "train": (cmd_train, ("seed", "dataset", *_SCHEDULE, *_TRAIN)),
    "eval": (cmd_eval, ("seed", "dataset", "bins", "corruptions")),
    "infocurve": (cmd_infocurve, ("dataset", *_SIGMAS, "t_steps")),
    "spectra": (cmd_spectra, ("seed", "dataset")),
    "study": (cmd_study, ("seeds", "train_count", "test_count", "train.epochs")),
}


def exit_code(run: Callable[[], int]) -> int:
    """``run()``, or the exit code of the library error it raises, printed as ``error: ...``;
    a setting too large for memory is a data error."""
    try:
        return run()
    except (TrainingDivergedError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DataError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
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
