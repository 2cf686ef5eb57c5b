import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from datamoll.errors import DataError
from datamoll.mollifier import heat_blur, noise_image
from datamoll.synth import standardized_dataset
from datamoll.tensors import (
    ChannelStats,
    compute_channel_stats,
    dct2d,
    ensure_image,
    ensure_image_or_stack,
    ensure_stack,
    idct2d,
)
from tests.oracles import (
    fft_dct2d,
    fft_idct2d,
    kernel_inputs,
    naive_dct2,
    two_call_dct2d,
    two_call_idct2d,
    two_pass_stats,
)


def rand_image(rng, h, w, c):
    return rng.standard_normal((h, w, c))


class TestChannelStats:
    def test_constant_image_floors_std(self):
        stats = compute_channel_stats([np.zeros((4, 4, 1))])
        assert stats.mean[0] == 0.0
        assert stats.std[0] == approx(1e-8)

    def test_symmetric_pair(self):
        imgs = [np.full((1, 1, 1), -1.0), np.full((1, 1, 1), 1.0)]
        stats = compute_channel_stats(imgs)
        assert stats.mean[0] == approx(0.0)
        assert stats.std[0] == approx(1.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        imgs = [rand_image(rng, 5, 7, 3) * 2.0 + 0.5 for _ in range(4)]
        stats = compute_channel_stats(imgs)
        mean, std = two_pass_stats(imgs)
        assert stats.mean == approx(mean)
        assert stats.std == approx(std)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            compute_channel_stats([])

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DataError):
            compute_channel_stats([np.zeros((2, 2, 1)), np.zeros((2, 2, 3))])

    @pytest.mark.parametrize(
        "images",
        [
            [np.zeros((2, 2, 1)), np.zeros((3, 3, 1))],  # ragged
            [np.zeros((2, 2))],  # not (H, W, C)
            [np.zeros((2, 0, 1))],  # an empty axis
            [np.full((2, 2, 1), np.nan)],
        ],
    )
    def test_rejects_what_is_not_a_finite_stack(self, images):
        with pytest.raises(DataError):
            compute_channel_stats(images)

    def test_equals_the_per_image_loop_exactly(self):
        # The reference adds per-image sums in image order, as the stack reduction must.
        images = np.random.default_rng(5).standard_normal((9, 5, 7, 3)) * 3.0 + 1.0
        count = 9 * 5 * 7
        total = np.zeros(3)
        for img in images:
            total += img.sum(axis=(0, 1))
        mean = total / count
        sq = np.zeros(3)
        for img in images:
            sq += ((img - mean) ** 2).sum(axis=(0, 1))
        std = np.maximum(np.sqrt(sq / count), 1e-8)
        for dataset in (images, list(images)):
            stats = compute_channel_stats(dataset)
            assert np.array_equal(stats.mean, mean)
            assert np.array_equal(stats.std, std)

    def test_nonpositive_std_rejected(self):
        with pytest.raises(DataError):
            ChannelStats(mean=np.zeros(1), std=np.zeros(1))


class TestEnsure:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_a_non_finite_pixel_anywhere_is_rejected(self, value, where):
        img = np.ones((5, 4, 3))
        stack = np.ones((3, 5, 4, 3))
        for arr in (img, stack):
            arr.flat[{"first": 0, "middle": arr.size // 2, "last": arr.size - 1}[where]] = value
        with pytest.raises(DataError, match="^image contains non-finite values$"):
            ensure_image(img)
        with pytest.raises(DataError, match="^images contain non-finite values$"):
            ensure_stack(stack)

    @pytest.mark.parametrize("shape", [(5, 4, 3), (2, 5, 4, 3)], ids=["image", "stack"])
    def test_only_an_input_that_is_not_a_float64_array_is_converted(self, shape):
        arr = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        ragged = [arr[..., :1].tolist(), arr[..., :2].tolist()]
        for ensure in [ensure_image_or_stack] + ([ensure_image] if arr.ndim == 3 else []):
            assert ensure(arr) is arr
            for other in (arr.tolist(), arr.astype(np.float32), arr.astype(np.int64)):
                out = ensure(other)
                assert type(out) is np.ndarray and out.dtype == np.float64
                assert np.array_equal(out, arr)
            with pytest.raises(DataError, match=r"^images must share one \(H, W, C\) shape$"):
                ensure(ragged)

    def test_ragged_images_are_a_data_error_in_every_transform(self):
        # The same error ensure_stack gives, not NumPy's inhomogeneous-shape ValueError.
        images = [np.zeros((4, 4, 1)), np.zeros((4, 3, 1))]
        transforms = [
            dct2d, idct2d, lambda x: heat_blur(x, 0.5), ensure_image,
            lambda x: noise_image(x, 0.5, np.random.default_rng(0)),
        ]
        for transform in transforms:
            with pytest.raises(DataError, match=r"^images must share one \(H, W, C\) shape$"):
                transform(images)


def _standardize(images: np.ndarray, stats: ChannelStats) -> np.ndarray:
    labels = np.zeros(len(images), dtype=np.int64)
    return standardized_dataset(images, labels, 2, stats=stats).images


class TestStandardize:
    def test_identity_stats(self):
        imgs = np.random.default_rng(0).standard_normal((2, 3, 3, 2))
        stats = ChannelStats(mean=np.zeros(2), std=np.ones(2))
        assert np.array_equal(_standardize(imgs, stats), imgs)
        assert imgs * stats.std + stats.mean == approx(imgs)

    def test_centering(self):
        img = np.full((1, 1, 1, 1), 0.5)
        stats = ChannelStats(mean=np.array([0.5]), std=np.array([0.25]))
        assert _standardize(img, stats)[0, 0, 0, 0] == 0.0
        assert (np.zeros((1, 1, 1)) * stats.std + stats.mean)[0, 0, 0] == 0.5

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        imgs = rng.standard_normal((2, 6, 5, 3))
        stats = ChannelStats(mean=rng.standard_normal(3), std=rng.uniform(0.5, 2.0, 3))
        assert _standardize(imgs, stats) * stats.std + stats.mean == approx(imgs, abs=1e-6)
        assert _standardize(imgs * stats.std + stats.mean, stats) == approx(imgs, abs=1e-6)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_channel_mismatch(self, channels):
        # One channel used to broadcast to three; two failed inside NumPy.
        stats = ChannelStats(mean=np.zeros(3), std=np.ones(3))
        with pytest.raises(DataError, match=f"^images have {channels} channels but stats describe 3$"):
            _standardize(np.zeros((2, 2, 2, channels)), stats)

    def test_stats_of_standardized_dataset(self):
        rng = np.random.default_rng(2)
        imgs = rng.standard_normal((6, 8, 8, 2)) * 3.0 - 1.0
        stats = compute_channel_stats(imgs)
        post = compute_channel_stats(_standardize(imgs, stats))
        assert post.mean == approx(np.zeros(2), abs=1e-6)
        assert post.std == approx(np.ones(2), abs=1e-6)


class TestDct:
    def test_constant_2x2_all_energy_in_dc(self):
        c = 1.7
        grid = dct2d(np.full((2, 2, 1), c))
        assert grid[0, 0, 0] == approx(2.0 * c)  # c * sqrt(H*W)
        assert grid[0, 1, 0] == approx(0.0, abs=1e-12)
        assert grid[1, 0, 0] == approx(0.0, abs=1e-12)
        assert grid[1, 1, 0] == approx(0.0, abs=1e-12)

    def test_single_pixel(self):
        grid = dct2d(np.full((1, 1, 1), -0.4))
        assert grid[0, 0, 0] == approx(-0.4)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(7)
        img = rand_image(rng, 4, 4, 1)
        grid = dct2d(img)
        assert grid[:, :, 0] == approx(naive_dct2(img[:, :, 0]), abs=1e-8)

    def test_oracle_on_rectangular_image(self):
        rng = np.random.default_rng(8)
        img = rand_image(rng, 3, 5, 2)
        grid = dct2d(img)
        for ch in range(2):
            assert grid[:, :, ch] == approx(naive_dct2(img[:, :, ch]), abs=1e-8)

    def test_equals_the_two_call_scipy_fft_form_exactly(self):
        for label, img in kernel_inputs():
            grid = dct2d(img)
            assert np.isfinite(grid).all(), label
            assert np.array_equal(grid, fft_dct2d(img)), label
            assert np.array_equal(idct2d(img), fft_idct2d(img)), label
            assert np.array_equal(idct2d(grid), fft_idct2d(grid)), label

    @pytest.mark.parametrize("shape", [(16, 16, 1), (32, 32, 3), (12, 20, 2), (1, 1, 1)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_transform_serves_images_and_stacks(self, shape, order):
        # The image and stack forms equal the two-call per-image DCT bit for bit.
        stack = np.random.default_rng(sum(shape)).standard_normal((4,) + shape)
        stack = np.asarray(stack, order=order)
        grids = np.stack([two_call_dct2d(img) for img in stack])
        assert np.array_equal(dct2d(stack), grids)
        assert np.array_equal(idct2d(grids), np.stack([two_call_idct2d(g) for g in grids]))
        for img, grid in zip(stack, grids):
            img = np.asarray(img, order=order)
            assert np.array_equal(dct2d(img), grid)
            assert np.array_equal(idct2d(grid), two_call_idct2d(grid))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_a_stack_of_any_layout_equals_the_per_image_fftpack_form(self, layout):
        # The r2r kernel walks a stack by its own strides; an info_curve chunk is a
        # slice of its stack, in the stack's order.
        base = np.random.default_rng(31).standard_normal((9, 20, 18, 3))
        stack = {
            "C": base[2:7],
            "F": np.asfortranarray(base)[2:7],
            "strided": base[::2, 1::2, ::-1, ::2],
        }[layout]
        grids = np.stack([two_call_dct2d(img) for img in stack])
        assert np.array_equal(dct2d(stack), grids)
        assert np.array_equal(idct2d(stack), np.stack([two_call_idct2d(img) for img in stack]))

    def test_zero_grid_inverts_to_zero(self):
        assert idct2d(np.zeros((4, 4, 1))) == approx(np.zeros((4, 4, 1)))

    def test_dc_coefficient_gives_constant_image(self):
        grid = np.zeros((4, 6, 1))
        c = 0.9
        grid[0, 0, 0] = c * np.sqrt(4 * 6)
        assert idct2d(grid) == approx(np.full((4, 6, 1), c), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        c=st.integers(1, 3),
        seed=st.integers(0, 2**31),
    )
    def test_roundtrip_and_parseval(self, h, w, c, seed):
        img = np.random.default_rng(seed).standard_normal((h, w, c))
        grid = dct2d(img)
        assert np.abs(idct2d(grid) - img).max() <= 1e-6
        pixel_energy = float((img**2).sum())
        coef_energy = float((grid**2).sum())
        assert coef_energy == approx(pixel_energy, rel=1e-6)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DataError):
            dct2d(np.zeros((4, 4)))
        with pytest.raises(DataError):
            dct2d(np.full((2, 2, 1), np.nan))
