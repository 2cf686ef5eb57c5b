"""Desk-scale robustness study data: mollified training against a clean baseline.

The seeded texture splits, the ``TrainConfig`` settings of each arm, and the
across-seed summary of the reports that ``cli.run_study`` gives each arm: the
relative corrupted-error reduction, the clean-error change, and the
corrupted calibration error.
"""

from __future__ import annotations

import numpy as np

from .mol1 import Mol1Dataset
from .streams import derive_seed
from .synth import grating_dataset, standardized_dataset
from .tensors import compute_channel_stats

# Sub-seed tags of the study's data (its corruption grid's is cli._TAG_CORRUPTIONS).
_TAG_TRAIN_DATA = 101
_TAG_TEST_DATA = 102

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


def aggregate(results: list[StudyResult]) -> dict[str, float | None]:
    """Across-seed means of each arm's metrics on each split, plus the error reduction,
    which is None when the baseline's mean corrupted error is 0."""
    summary = {
        f"{arm}_{split}_{metric}": float(np.mean([r[arm][split][metric] for r in results]))
        for arm in ARMS
        for split in ("clean", "corrupted")
        for metric in ("error", "ece", "nll")
    }
    baseline = summary["baseline_corrupted_error"]
    summary["relative_error_reduction"] = (
        1.0 - summary["mollified_corrupted_error"] / baseline if baseline else None
    )
    return summary
