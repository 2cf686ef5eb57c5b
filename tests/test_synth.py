import hashlib

import numpy as np
import pytest
from pytest import approx

from datamoll.streams import derive_seed
from datamoll.study import texture_splits
from datamoll.synth import fractal_textures, grating_dataset, standardized_dataset
from datamoll.tensors import compute_channel_stats, dct2d, radial_frequencies
from tests.oracles import loop_fractal_textures, loop_grating_dataset

SEEDS = (0, 2**63 + 5)
COUNTS = (0, 1, 255, 256, 257, 600)  # either side of the 256-image chunk
SHAPES = ((16, 16), (12, 20), (32, 32))


def _sha256(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(arr.tobytes())
    return digest.hexdigest()


class TestFractalTextures:
    def test_shape_and_range(self):
        imgs = fractal_textures(8, 16, 24, seed=0)
        assert imgs.shape == (8, 16, 24, 1)
        assert imgs.min() >= 0.0 and imgs.max() <= 1.0

    def test_deterministic(self):
        assert np.array_equal(fractal_textures(3, 8, 8, seed=5), fractal_textures(3, 8, 8, seed=5))

    def test_spectrum_decays_with_frequency(self):
        imgs = fractal_textures(64, 16, 16, seed=1)
        acc = np.zeros((16, 16))
        for img in imgs:
            acc += np.abs(dct2d(img - img.mean())[:, :, 0])
        radius = radial_frequencies(16, 16)
        low = acc[(radius > 0) & (radius < 0.3)].mean()
        high = acc[radius > 0.9].mean()
        assert low > 3.0 * high

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("height, width", SHAPES)
    @pytest.mark.parametrize("count", COUNTS)
    def test_equals_the_per_image_loop_exactly(self, count, height, width, seed):
        expected = loop_fractal_textures(count, height, width, seed=seed)
        assert np.array_equal(fractal_textures(count, height, width, seed=seed), expected)

    def test_bytes_are_pinned(self):
        imgs = fractal_textures(256, 32, 32, seed=derive_seed(0, 103))
        assert _sha256(imgs) == "7e9c5d5d4c2b5bf114812960a1a6683fbdd97935c4267006b2db817be823b683"


class TestGratingDataset:
    def test_shapes_and_labels(self):
        imgs, labels = grating_dataset(32, seed=2)
        assert imgs.shape == (32, 16, 16, 1)
        assert labels.shape == (32,)
        assert set(np.unique(labels)) <= {0, 1, 2, 3}

    def test_deterministic(self):
        a_imgs, a_labels = grating_dataset(16, seed=9)
        b_imgs, b_labels = grating_dataset(16, seed=9)
        assert np.array_equal(a_imgs, b_imgs)
        assert np.array_equal(a_labels, b_labels)

    def test_all_classes_present(self):
        _, labels = grating_dataset(400, seed=3)
        assert set(np.unique(labels)) == {0, 1, 2, 3}

    def test_range(self):
        imgs, _ = grating_dataset(16, seed=4)
        assert imgs.min() >= 0.0 and imgs.max() <= 1.0

    @staticmethod
    def _check_against_loop(count, height, width, num_classes, seed):
        imgs, labels = grating_dataset(count, height, width, num_classes, seed=seed)
        expected_imgs, expected_labels = loop_grating_dataset(count, height, width, num_classes, seed)
        assert np.array_equal(imgs, expected_imgs)
        assert np.array_equal(labels, expected_labels)
        assert labels.dtype == np.int64

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", COUNTS)
    def test_any_count_equals_the_per_image_loop_exactly(self, count, seed):
        self._check_against_loop(count, 16, 16, 4, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_classes", (2, 4, 10))
    @pytest.mark.parametrize("height, width", SHAPES)
    def test_any_shape_and_class_count_equals_the_per_image_loop_exactly(
        self, height, width, num_classes, seed
    ):
        self._check_against_loop(257, height, width, num_classes, seed)

    def test_study_splits_are_pinned(self):
        train, test = texture_splits(0)
        assert _sha256(train.images, train.labels, test.images, test.labels) == (
            "78838964d101e7b928ccab8952257b210f8d9855224bc5daf7656022283aa6d3"
        )


class TestStandardizedDataset:
    def test_self_standardization(self):
        raw, labels = grating_dataset(64, seed=5)
        ds = standardized_dataset(raw, labels, 4, provenance="p")
        assert ds.images.mean() == approx(0.0, abs=1e-9)
        assert ds.images.std() == approx(1.0, abs=1e-6)
        assert ds.provenance == "p"

    def test_external_stats(self):
        raw_a, labels_a = grating_dataset(64, seed=6)
        raw_b, labels_b = grating_dataset(32, seed=7)
        stats = compute_channel_stats(list(raw_a))
        ds_b = standardized_dataset(raw_b, labels_b, 4, stats=stats)
        expected = (raw_b - stats.mean) / stats.std
        assert np.array_equal(ds_b.images, expected)
