"""Desk-scale robustness study: mollified training against a clean baseline.

Builds a seeded multi-scale texture classification problem, trains the same
network twice (with and without mollification), and evaluates both models
on the clean test split and on the full 4-corruption x 5-severity grid.
The quantities of interest are the relative corrupted-error reduction, the
clean-error change, and the corrupted calibration error.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ArmResult:
    """Metrics of one trained model (one study arm)."""

    clean_error: float
    clean_ece: float
    corrupted_error: float
    corrupted_ece: float
    corrupted_nll: float
    per_tag_error: dict[str, float]


@dataclass(frozen=True)
class StudyResult:
    seed: int
    baseline: ArmResult
    mollified: ArmResult

    @property
    def relative_error_reduction(self) -> float:
        return 1.0 - self.mollified.corrupted_error / self.baseline.corrupted_error


def texture_splits(
    seed: int,
    train_count: int = 4096,
    test_count: int = 1024,
    height: int = 16,
    width: int = 16,
    num_classes: int = 4,
) -> tuple[Mol1Dataset, Mol1Dataset]:
    """The study's train and test texture splits, both standardized with the train statistics."""
    raw_train, labels_train = grating_dataset(
        train_count, height, width, num_classes, seed=derive_seed(seed, _TAG_TRAIN_DATA)
    )
    raw_test, labels_test = grating_dataset(
        test_count, height, width, num_classes, seed=derive_seed(seed, _TAG_TEST_DATA)
    )
    stats = compute_channel_stats(raw_train)
    ds_train = standardized_dataset(
        raw_train, labels_train, num_classes, provenance=f"textures-train seed={seed}", stats=stats
    )
    ds_test = standardized_dataset(
        raw_test, labels_test, num_classes, provenance=f"textures-test seed={seed}", stats=stats
    )
    return ds_train, ds_test


def run_study(
    seed: int,
    train_count: int = 4096,
    test_count: int = 1024,
    epochs: int = 100,
    height: int = 16,
    width: int = 16,
    num_classes: int = 4,
) -> StudyResult:
    ds_train, ds_test = texture_splits(seed, train_count, test_count, height, width, num_classes)
    schedule = ScheduleConfig.for_width(width)
    corruption_seed = derive_seed(seed, _TAG_CORRUPTIONS)

    arms = {}
    for name, mollify in (("baseline", False), ("mollified", True)):
        cfg = TrainConfig(schedule=schedule, epochs=epochs, seed=seed, mollify=mollify)
        params, _report = train(ds_train, cfg)
        clean = evaluate(predict_batch(params, ds_test, tag="clean"))
        cells = [
            predict_records(params, batch, ds_test.labels, tag=tag)
            for tag, batch in corruption_grid(ds_test.images, corruption_seed)
        ]
        corrupted = evaluate(np.concatenate(cells))
        arms[name] = ArmResult(
            clean_error=clean.error,
            clean_ece=clean.ece,
            corrupted_error=corrupted.error,
            corrupted_ece=corrupted.ece,
            corrupted_nll=corrupted.nll,
            per_tag_error={tag: rep.error for tag, rep in corrupted.per_tag.items()},
        )
    return StudyResult(seed=seed, baseline=arms["baseline"], mollified=arms["mollified"])


def aggregate(results: list[StudyResult]) -> dict[str, float]:
    """Across-seed means of the headline study quantities."""
    base_corr = float(np.mean([r.baseline.corrupted_error for r in results]))
    moll_corr = float(np.mean([r.mollified.corrupted_error for r in results]))
    return {
        "baseline_clean_error": float(np.mean([r.baseline.clean_error for r in results])),
        "mollified_clean_error": float(np.mean([r.mollified.clean_error for r in results])),
        "baseline_corrupted_error": base_corr,
        "mollified_corrupted_error": moll_corr,
        "baseline_corrupted_ece": float(np.mean([r.baseline.corrupted_ece for r in results])),
        "mollified_corrupted_ece": float(np.mean([r.mollified.corrupted_ece for r in results])),
        "baseline_corrupted_nll": float(np.mean([r.baseline.corrupted_nll for r in results])),
        "mollified_corrupted_nll": float(np.mean([r.mollified.corrupted_nll for r in results])),
        "relative_error_reduction": 1.0 - moll_corr / base_corr,
    }
