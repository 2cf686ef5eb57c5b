"""The robustness study at desk size: what each arm trains and reports."""

import numpy as np
import pytest

from datamoll import cli, study
from datamoll.analysis import corruption_grid
from datamoll.metrics import evaluate
from datamoll.schedules import ScheduleConfig
from datamoll.streams import derive_seed
from datamoll.trainer import TrainConfig, predict_batch, predict_records, train

SEED, TRAIN_COUNT, TEST_COUNT, EPOCHS = 0, 64, 32, 1


@pytest.fixture(scope="module")
def studied():
    """One small study, with the (config, params) of each training it ran."""
    trained = []
    mp = pytest.MonkeyPatch()

    def recording_train(dataset, cfg):
        params, report = train(dataset, cfg)
        trained.append((cfg, params))
        return params, report

    mp.setattr(cli, "train", recording_train)
    try:
        result = cli.run_study(SEED, TRAIN_COUNT, TEST_COUNT, EPOCHS)
    finally:
        mp.undo()
    return result, dict(zip(study.ARMS, trained))


def _reports(params, ds_test):
    cells = corruption_grid(ds_test.images, derive_seed(SEED, cli._TAG_CORRUPTIONS))
    corrupted = [predict_records(params, batch, ds_test.labels, tag=tag) for tag, batch in cells]
    return {
        "clean": evaluate(predict_batch(params, ds_test, tag="clean")),
        "corrupted": evaluate(np.concatenate(corrupted)),
    }


def test_each_arm_reports_evaluate_on_its_own_predictions(studied):
    result, trained = studied
    assert list(result) == list(study.ARMS)
    _, ds_test = study.texture_splits(SEED, TRAIN_COUNT, TEST_COUNT)
    for arm, (_, params) in trained.items():
        assert result[arm] == _reports(params, ds_test)
    assert result["baseline"] != result["mollified"]


def test_baseline_is_standard_training(studied):
    _, trained = studied
    cfg, params = trained["baseline"]
    assert not cfg.mollify and cfg.loss == "smoothed"
    ds_train, _ = study.texture_splits(SEED, TRAIN_COUNT, TEST_COUNT)
    schedule = ScheduleConfig.for_width(study.WIDTH)
    plain = TrainConfig(
        schedule=schedule, epochs=EPOCHS, seed=SEED, mollify=False, loss="smoothed"
    )
    expected, _ = train(ds_train, plain)
    for (_, got), (_, want) in zip(params.blocks(), expected.blocks()):
        assert np.array_equal(got, want)
    assert trained["mollified"][0].mollify


def test_aggregate_of_one_seed_is_its_own_values(studied):
    result, _ = studied
    summary = study.aggregate([result])
    for arm in ("baseline", "mollified"):
        for split in ("clean", "corrupted"):
            for metric in ("error", "ece", "nll"):
                assert summary[f"{arm}_{split}_{metric}"] == result[arm][split][metric]
    reduction = 1.0 - (
        result["mollified"]["corrupted"]["error"] / result["baseline"]["corrupted"]["error"]
    )
    assert summary["relative_error_reduction"] == reduction
    # Every key that criterion 10 and `datamoll study` read.
    read = {
        f"{arm}_{key}"
        for arm in ("baseline", "mollified")
        for key in ("clean_error", "corrupted_error", "corrupted_ece", "corrupted_nll")
    }
    assert read | {"relative_error_reduction"} <= set(summary)


def test_aggregate_has_no_reduction_when_the_baseline_makes_no_corrupted_error():
    report = {"error": 0.0, "nll": 0.01, "ece": 0.01, "count": 32}
    summary = study.aggregate([{arm: {"clean": report, "corrupted": report} for arm in study.ARMS}])
    assert summary["baseline_corrupted_error"] == 0.0
    assert summary["relative_error_reduction"] is None
