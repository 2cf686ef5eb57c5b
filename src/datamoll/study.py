"""Desk-scale robustness study: mollified training against a clean baseline.

Builds a seeded multi-scale texture classification problem, trains the same
network once per arm of ``ARMS``, and evaluates each model on the clean test
split and on the full 4-corruption x 5-severity grid.  The quantities of
interest are the relative corrupted-error reduction, the clean-error change,
and the corrupted calibration error.
"""

from __future__ import annotations

import numpy as np

from .analysis import corruption_grid
from .metrics import evaluate
from .mol1 import Mol1Dataset
from .schedules import ScheduleConfig
from .streams import derive_seed
from .synth import grating_dataset, standardized_dataset
from .tensors import compute_channel_stats
from .trainer import TrainConfig, predict_batch, predict_records, train

# Sub-seed tags for the independent random choices of one study.
_TAG_TRAIN_DATA = 101
_TAG_TEST_DATA = 102
_TAG_CORRUPTIONS = 103

# The study's images: 16x16 pixels, 4 classes, 4096 to train on and 1024 to test.
HEIGHT = WIDTH = 16
NUM_CLASSES = 4
TRAIN_COUNT, TEST_COUNT = 4096, 1024

# The TrainConfig settings of each arm, over the defaults.  The baseline pins
# its loss: unmollified, every smoothed label is one-hot, so it trains with
# cross-entropy whatever the default loss is.
ARMS = {
    "baseline": {"mollify": False, "loss": "smoothed"},
    "mollified": {"mollify": True},
}

# One seed's study: arm -> split -> the report of metrics.evaluate.
StudyResult = dict[str, dict[str, dict]]


def texture_splits(
    seed: int, train_count: int = TRAIN_COUNT, test_count: int = TEST_COUNT
) -> tuple[Mol1Dataset, Mol1Dataset]:
    """The study's train and test texture splits, both standardized with the train statistics."""
    raw_train, labels_train = grating_dataset(
        train_count, HEIGHT, WIDTH, NUM_CLASSES, seed=derive_seed(seed, _TAG_TRAIN_DATA)
    )
    raw_test, labels_test = grating_dataset(
        test_count, HEIGHT, WIDTH, NUM_CLASSES, seed=derive_seed(seed, _TAG_TEST_DATA)
    )
    stats = compute_channel_stats(raw_train)
    ds_train = standardized_dataset(
        raw_train, labels_train, NUM_CLASSES, provenance=f"textures-train seed={seed}", stats=stats
    )
    ds_test = standardized_dataset(
        raw_test, labels_test, NUM_CLASSES, provenance=f"textures-test seed={seed}", stats=stats
    )
    return ds_train, ds_test


def run_study(
    seed: int, train_count: int = TRAIN_COUNT, test_count: int = TEST_COUNT,
    epochs: int = TrainConfig.epochs,
) -> StudyResult:
    """Train one model per arm of ``ARMS`` and evaluate it clean and on the corruption grid."""
    ds_train, ds_test = texture_splits(seed, train_count, test_count)
    schedule = ScheduleConfig.for_width(WIDTH)
    cells = list(corruption_grid(ds_test.images, derive_seed(seed, _TAG_CORRUPTIONS)))
    result = {}
    for arm, settings in ARMS.items():
        cfg = TrainConfig(schedule=schedule, epochs=epochs, seed=seed, **settings)
        params, _report = train(ds_train, cfg)
        corrupted = [predict_records(params, batch, ds_test.labels, tag=tag) for tag, batch in cells]
        result[arm] = {
            "clean": evaluate(predict_batch(params, ds_test, tag="clean")),
            "corrupted": evaluate(np.concatenate(corrupted)),
        }
    return result


def aggregate(results: list[StudyResult]) -> dict[str, float]:
    """Across-seed means of each arm's metrics on each split, plus the error reduction."""
    summary = {
        f"{arm}_{split}_{metric}": float(np.mean([r[arm][split][metric] for r in results]))
        for arm in ARMS
        for split in ("clean", "corrupted")
        for metric in ("error", "ece", "nll")
    }
    summary["relative_error_reduction"] = (
        1.0 - summary["mollified_corrupted_error"] / summary["baseline_corrupted_error"]
    )
    return summary
