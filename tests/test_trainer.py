import hashlib
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.special import logsumexp

from datamoll import mollifier, trainer
from datamoll.errors import DataError, TrainingDivergedError
from datamoll.likelihood import soft_labels
from datamoll.mol1 import Mol1Dataset
from datamoll.mollifier import mollify_batch
from datamoll.schedules import ScheduleConfig
from datamoll.synth import grating_dataset, standardized_dataset
from datamoll.tensors import ChannelStats
from datamoll.trainer import (
    MlpParams,
    TrainConfig,
    cosine_lr,
    init_params,
    load_params,
    loss_and_grad,
    predict_batch,
    predict_records,
    save_params,
    train,
)
from tests.helpers import label
from tests.oracles import finite_difference_grads, max_rel_gradient_error, pixel_space_train
from tests.strategies import JSON_VALUES


def blob_dataset(n=256, h=4, w=4, seed=0, spread=0.1):
    """Two linearly separable blobs rendered as tiny images."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    signs = np.where(labels == 0, -1.0, 1.0)
    images = signs[:, None, None, None] * 0.8 + spread * rng.standard_normal((n, h, w, 1))
    return Mol1Dataset(
        images=images,
        labels=labels,
        num_classes=2,
        stats=ChannelStats(mean=np.zeros(1), std=np.ones(1)),
        provenance="blobs",
    )


def tiny_params(seed=7, scale=0.7):
    rng = np.random.default_rng(seed)
    return MlpParams(
        w1=rng.standard_normal((2, 2)) * scale,
        b1=rng.standard_normal(2) * 0.3,
        w2=rng.standard_normal((2, 2)) * scale,
        b2=rng.standard_normal(2) * 0.3,
    )


def log_probs(params, x):
    """Log-probabilities of one flat input or image, through the batch prediction path."""
    return np.log(predict_records(params, x[None], np.array([0])).probs[0])


class TestForward:
    def test_zero_weights_uniform(self):
        params = MlpParams(np.zeros((3, 4)), np.zeros(3), np.zeros((5, 3)), np.zeros(5))
        logp = log_probs(params, np.zeros(4))
        assert logp == approx(np.full(5, -math.log(5.0)))

    def test_normalized(self):
        params = init_params(6, 4, 3, seed=0)
        logp = log_probs(params, np.random.default_rng(1).standard_normal(6))
        assert logsumexp(logp) == approx(0.0, abs=1e-9)

    def test_hand_computed_2_2_2(self):
        params = MlpParams(
            w1=np.array([[1.0, -1.0], [0.5, 0.25]]),
            b1=np.array([0.1, -0.2]),
            w2=np.array([[1.0, 2.0], [-1.0, 0.5]]),
            b2=np.array([0.0, 0.3]),
        )
        x = np.array([1.0, 2.0])
        hidden = np.maximum([1.0 - 2.0 + 0.1, 0.5 + 0.5 - 0.2], 0.0)  # [0, 0.8]
        logits = np.array(
            [1.0 * hidden[0] + 2.0 * hidden[1], -1.0 * hidden[0] + 0.5 * hidden[1] + 0.3]
        )  # [1.6, 0.7]
        expected = logits - math.log(math.exp(1.6) + math.exp(0.7))
        assert log_probs(params, x) == approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        params = init_params(4, 3, 2, seed=0)
        with pytest.raises(DataError):
            predict_batch(params, blob_dataset(n=4, h=5, w=1))

    def test_accepts_image_shape(self):
        params = init_params(8, 3, 2, seed=0)
        img = np.random.default_rng(0).standard_normal((2, 2, 2))
        assert log_probs(params, img) == approx(log_probs(params, img.reshape(-1)))


class TestGrad:
    def test_zero_at_matched_prediction(self):
        # symmetric zero network predicts uniform; uniform label kills the
        # output-layer gradient
        params = MlpParams(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros(2))
        y = label(0, 2, 1.0)  # uniform
        _, g = loss_and_grad(params, np.ones((1, 2)), y[None])
        assert g["w2"] == approx(np.zeros((2, 2)), abs=1e-15)
        assert g["b2"] == approx(np.zeros(2), abs=1e-15)

    @pytest.mark.parametrize(
        "label,norm",
        [
            (label(0, 2, 0.3), False),
            (label(1, 2, 0.4, smoothed=False), False),
            (label(1, 2, 0.2), True),
        ],
    )
    def test_matches_finite_differences(self, label, norm):
        params = tiny_params()
        x = np.random.default_rng(11).standard_normal((1, 2)) + 0.5
        _, analytic = loss_and_grad(params, x, label[None], include_normalizer=norm)
        numeric = finite_difference_grads(
            lambda: loss_and_grad(params, x, label[None], include_normalizer=norm)[0], params
        )
        assert max_rel_gradient_error(analytic, numeric) <= 1e-5

    def test_logit_gradient_sums_to_zero(self):
        # d(-sum y_c logp_c)/d logits = f * sum(y) - y, which always sums to 0;
        # for a batch of one it is the gradient of the output bias
        params = tiny_params(seed=3)
        x = np.array([0.3, -0.8])
        f = np.exp(log_probs(params, x))
        for y in (label(0, 2, 0.25), label(0, 2, 0.25, smoothed=False)):
            dlogits = f * y.sum() - y
            assert dlogits.sum() == approx(0.0, abs=1e-12)
            _, g = loss_and_grad(params, x[None], y[None])
            assert g["b2"] == approx(dlogits, abs=1e-12)

    def test_batch_loss_is_mean_of_rows(self):
        params = tiny_params(seed=5)
        x = np.random.default_rng(2).standard_normal((3, 2))
        y = soft_labels(np.array([0, 1, 1]), np.array([0.1, 0.5, 0.9]), 2)
        for norm in (False, True):
            loss, grads = loss_and_grad(params, x, y, include_normalizer=norm)
            rows = [loss_and_grad(params, x[i : i + 1], y[i : i + 1], norm) for i in range(3)]
            assert loss == approx(np.mean([r[0] for r in rows]), abs=1e-12)
            for name, g in grads.items():
                assert g == approx(np.mean([r[1][name] for r in rows], axis=0), abs=1e-12)


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [math.nan, math.inf])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(schedule=ScheduleConfig.for_width(4), lr=lr)


class TestCosineLr:
    def test_schedule_shape(self):
        cfg = TrainConfig(schedule=ScheduleConfig.for_width(4), epochs=100, lr=0.01)
        assert cosine_lr(0, cfg) == 0.01
        assert cosine_lr(50, cfg) == approx(0.005)
        assert cosine_lr(99, cfg) < 1e-4
        with pytest.raises(ValueError):
            cosine_lr(100, cfg)


class TestTrain:
    def test_loss_decreases_on_separable_blobs(self):
        ds = blob_dataset()
        cfg = TrainConfig(
            schedule=ScheduleConfig.for_width(4), epochs=5, mollify=False, seed=1
        )
        _, report = train(ds, cfg)
        losses = [row.mean_loss for row in report.epochs]
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_forced_none_equals_unmollified(self):
        ds = blob_dataset(n=64)
        sched = ScheduleConfig(sigma_max=4.0, mode_probs=(1.0, 0.0, 0.0))
        base_cfg = TrainConfig(schedule=sched, epochs=3, mollify=False, seed=5)
        moll_cfg = TrainConfig(schedule=sched, epochs=3, mollify=True, seed=5)
        p1, _ = train(ds, base_cfg)
        p2, _ = train(ds, moll_cfg)
        for (_, a), (_, b) in zip(p1.blocks(), p2.blocks()):
            assert np.array_equal(a, b)

    def test_fixed_seed_replay(self):
        ds = blob_dataset(n=64)
        cfg = TrainConfig(schedule=ScheduleConfig.for_width(4), epochs=3, seed=9)
        p1, r1 = train(ds, cfg)
        p2, r2 = train(ds, cfg)
        for (_, a), (_, b) in zip(p1.blocks(), p2.blocks()):
            assert np.array_equal(a, b)
        assert [e.mean_loss for e in r1.epochs] == [e.mean_loss for e in r2.epochs]

    def test_mollified_params_are_pinned(self):
        # SHA-256 of the params, from the code that keys each mollified row's
        # stream by the Philox key [batch seed, row] and trains in DCT
        # coordinates: 2 mollified epochs of 2 batches on a grating split.
        raw, labels = grating_dataset(256, seed=5)
        ds = standardized_dataset(raw, labels, 4, provenance="gratings")
        cfg = TrainConfig(schedule=ScheduleConfig.for_width(16), epochs=2, seed=2**63 + 9)
        params, _ = train(ds, cfg)
        digest = hashlib.sha256(b"".join(arr.tobytes() for _, arr in params.blocks()))
        assert digest.hexdigest() == (
            "30dae719aa363fb906a58ef90728153226c256d191f91b4114fef7103c389632"
        )

    def test_two_samples_per_image_params_are_pinned(self):
        # The same run with two mollified samples of each image per batch, so
        # each batch joins two mollify_coeffs results; like the pin above, it
        # holds for one host class (np.exp rounds differently under AVX-512).
        raw, labels = grating_dataset(256, seed=5)
        ds = standardized_dataset(raw, labels, 4, provenance="gratings")
        cfg = TrainConfig(
            schedule=ScheduleConfig.for_width(16), epochs=2, seed=2**63 + 9, samples_per_image=2
        )
        params, _ = train(ds, cfg)
        digest = hashlib.sha256(b"".join(arr.tobytes() for _, arr in params.blocks()))
        assert digest.hexdigest() == (
            "d2e79e439be2baabc1b5814f38e51ee74912308949fba55c0ef6a4080fdaa934"
        )

    @pytest.mark.parametrize(
        "shape, samples_per_image",
        [((96, 16, 16, 1), 1), ((96, 16, 16, 1), 2), ((96, 6, 5, 3), 1)],
        ids=["gray", "gray-two-samples", "rgb"],
    )
    def test_mollified_params_match_the_pixel_space_loop(self, shape, samples_per_image):
        # The trainer mollifies in DCT coordinates, the oracle pixels with
        # mollify_batch; the orthonormal DCT leaves SGD the same up to roundoff.
        rng = np.random.default_rng(sum(shape))
        ds = Mol1Dataset(
            images=rng.standard_normal(shape),
            labels=rng.integers(0, 3, shape[0]),
            num_classes=3,
            stats=ChannelStats(mean=np.zeros(shape[3]), std=np.ones(shape[3])),
        )
        cfg = TrainConfig(
            schedule=ScheduleConfig.for_width(shape[2]), epochs=3, batch_size=32, lr=0.1,
            hidden_units=16, seed=11, samples_per_image=samples_per_image,
        )
        params, _ = train(ds, cfg)
        expected = pixel_space_train(ds, cfg)
        for (name, got), (_, want) in zip(params.blocks(), expected.blocks()):
            assert np.allclose(got, want, rtol=0, atol=1e-10), name

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("samples_per_image", [1, 2])
    def test_every_stream_has_its_own_philox_key(self, monkeypatch, seed, samples_per_image):
        # The init stream, each epoch's shuffle stream and every mollified
        # row's stream: NumPy's SeedSequence ignores trailing zero key words,
        # so distinct key tuples can still name one stream.
        opened = []

        def recording_stream(*key):
            rng = real_stream(*key)
            opened.append(tuple(int(w) for w in rng.bit_generator.state["state"]["key"]))
            return rng

        real_stream = trainer.stream
        monkeypatch.setattr(trainer, "stream", recording_stream)
        monkeypatch.setattr(mollifier, "stream", recording_stream)
        ds = blob_dataset(n=48)
        cfg = TrainConfig(
            schedule=ScheduleConfig.for_width(4), epochs=2, batch_size=16, seed=seed,
            samples_per_image=samples_per_image,
        )
        train(ds, cfg)
        assert len(opened) == 1 + cfg.epochs * (1 + ds.count * samples_per_image)
        assert len(set(opened)) == len(opened)

    def test_diverged_training_aborts(self):
        ds = blob_dataset(n=64)
        cfg = TrainConfig(
            schedule=ScheduleConfig.for_width(4),
            epochs=3,
            mollify=False,
            seed=2,
            lr=1e160,
        )
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            train(ds, cfg)

    def test_multi_sample_runs_and_replays(self):
        ds = blob_dataset(n=32)
        cfg = TrainConfig(
            schedule=ScheduleConfig.for_width(4), epochs=2, seed=3, samples_per_image=2
        )
        p1, _ = train(ds, cfg)
        p2, _ = train(ds, cfg)
        assert np.array_equal(p1.w1, p2.w1)

    def test_loss_bounded_below_by_label_entropy(self):
        # Gibbs inequality: CE(y, p) >= H(y) for smoothed (proper) labels
        ds = blob_dataset(n=32)
        sched = ScheduleConfig.for_width(4)
        params = init_params(16, 8, 2, seed=0)
        samples = mollify_batch(ds.images, sched, seed=4)
        x = samples.image.reshape(len(samples), -1)
        y = soft_labels(ds.labels, samples.gamma, 2)
        for img_idx in range(16):
            probs = y[img_idx][y[img_idx] > 0]
            entropy = float(-(probs * np.log(probs)).sum())
            loss, _ = loss_and_grad(params, x[img_idx : img_idx + 1], y[img_idx : img_idx + 1])
            assert loss >= entropy - 1e-12


class TestPredict:
    def test_record_count_and_normalization(self):
        ds = blob_dataset(n=40)
        params = init_params(16, 8, 2, seed=0)
        records = predict_batch(params, ds)
        assert len(records) == 40
        for r in records:
            assert r.probs.sum() == approx(1.0, abs=1e-6)

    def test_zero_weight_model_uniform(self):
        ds = blob_dataset(n=10)
        params = MlpParams(np.zeros((8, 16)), np.zeros(8), np.zeros((2, 8)), np.zeros(2))
        for r in predict_batch(params, ds):
            assert r.probs == approx(np.full(2, 0.5))


class TestParamsIo:
    def test_roundtrip(self, tmp_path):
        params = init_params(12, 6, 3, seed=4)
        path = tmp_path / "params.bin"
        save_params(params, path, seed=4, config_hash="abc123")
        loaded, header = load_params(path)
        assert header["seed"] == 4
        assert header["config_hash"] == "abc123"
        for (_, a), (_, b) in zip(params.blocks(), loaded.blocks()):
            assert np.array_equal(a.astype(np.float32).astype(np.float64), b)

    def test_deterministic_bytes(self, tmp_path):
        params = init_params(12, 6, 3, seed=4)
        save_params(params, tmp_path / "a.bin", seed=1, config_hash="x")
        save_params(params, tmp_path / "b.bin", seed=1, config_hash="x")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    @pytest.mark.parametrize("value", [1e39, -np.inf, np.nan])
    def test_weights_outside_float32_are_refused_and_leave_no_file(self, tmp_path, value):
        params = init_params(12, 6, 3, seed=4)
        params.b2[1] = value
        path = tmp_path / "params.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="'b2'"):
                save_params(params, path, seed=4, config_hash="x")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "field, repeated, key",
        [(b'"seed":4', b'"seed":4,"seed":9', "seed"), (b'"b2":[3]', b'"b2":[3],"b2":[3]', "b2")],
        ids=["seed", "shapes.b2"],
    )
    def test_a_header_that_repeats_a_key_names_the_file_and_key(
        self, tmp_path, field, repeated, key
    ):
        path = tmp_path / "params.bin"
        save_params(init_params(12, 6, 3, seed=4), path, seed=4, config_hash="x")
        raw = path.read_bytes()
        head_len = int.from_bytes(raw[4:8], "little")
        head = raw[8 : 8 + head_len]
        assert head.count(field) == 1
        head = head.replace(field, repeated)
        path.write_bytes(raw[:4] + len(head).to_bytes(4, "little") + head + raw[8 + head_len :])
        with pytest.raises(DataError) as info:
            load_params(path)
        assert str(info.value) == f"{path} header: key {key!r} appears twice in one object"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not params")
        with pytest.raises(DataError):
            load_params(path)

    @settings(max_examples=300, deadline=None)
    @given(
        header=st.fixed_dictionaries(
            {},
            optional={
                "shapes": st.dictionaries(
                    st.sampled_from(["w1", "b1", "w2", "b2"]),
                    st.lists(st.integers(-2, 3), max_size=3) | JSON_VALUES,
                )
                | JSON_VALUES
            },
        )
        | JSON_VALUES,
        head_len_delta=st.integers(-2, 2),
        blob=st.binary(max_size=64),
    )
    def test_fuzzed_file_loads_or_raises_data_error(self, header, head_len_delta, blob):
        head = json.dumps(header).encode()
        head_len = max(len(head) + head_len_delta, 0)
        raw = b"MLP1" + head_len.to_bytes(4, "little") + head + blob
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.bin"
            path.write_bytes(raw)
            try:
                params, _ = load_params(path)
            except DataError:
                return
        assert 8 + head_len + 4 * sum(arr.size for _, arr in params.blocks()) == len(raw)
