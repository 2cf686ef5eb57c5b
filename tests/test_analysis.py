import hashlib

import numpy as np
import pytest
from pytest import approx

from datamoll import analysis, mollifier
from datamoll.analysis import (
    CORRUPTION_KINDS,
    _CONTRAST_FACTORS,
    _PIXELATE_BLOCKS,
    _pixel_layout,
    annulus_means,
    corrupt,
    corruption_cell,
    info_curve,
    quantize_for_png,
    spectral_delta,
)
from datamoll.errors import DataError
from datamoll.schedules import ScheduleConfig
from datamoll.streams import stream
from datamoll.synth import fractal_textures
from datamoll.tensors import ChannelStats, compute_channel_stats
from tests.oracles import (
    exp_decay_fit,
    info_curve_reference,
    kernel_inputs,
    loop_spectral_delta,
    mean_contrast,
    mean_pixelate,
    naive_pixelate,
    pearson,
)


@pytest.fixture(scope="module")
def texture_split():
    raw = fractal_textures(32, 16, 16, seed=3)
    stats = compute_channel_stats(list(raw))
    images = list((raw - stats.mean) / stats.std)
    return images, stats


class TestCorrupt:
    def test_severity_contract(self):
        img = np.zeros((8, 8, 1))
        for bad in (0, 6, -1, 2.5, True, False, np.True_):
            with pytest.raises(ValueError):
                corrupt(img, "gauss_blur", bad)
            with pytest.raises(ValueError):
                corrupt(img, "contrast", bad)
        with pytest.raises(ValueError):
            corrupt(img, "fog", 3)

    def test_contrast_scales_std(self):
        img = np.random.default_rng(0).standard_normal((16, 16, 2))
        out = corrupt(img, "contrast", 5)
        for ch in range(2):
            assert out[:, :, ch].std() == approx(0.2 * img[:, :, ch].std(), abs=1e-6)
            assert out[:, :, ch].mean() == approx(img[:, :, ch].mean(), abs=1e-9)

    def test_pixelate_full_block_is_constant(self):
        img = np.random.default_rng(1).standard_normal((6, 6, 1))
        out = corrupt(img, "pixelate", 5)  # block size 6 == width
        assert np.ptp(out) == approx(0.0, abs=1e-12)
        assert out[0, 0, 0] == approx(img.mean(), abs=1e-12)

    def test_pixelate_preserves_blockwise_mean(self):
        img = np.random.default_rng(2).standard_normal((8, 8, 1))
        out = corrupt(img, "pixelate", 1)  # block 2
        assert out[:2, :2, 0] == approx(np.full((2, 2), img[:2, :2, 0].mean()))

    @pytest.mark.parametrize("shape", [(16, 16, 1), (16, 16, 3), (13, 7, 2), (1, 1, 1), (2, 9, 1)])
    def test_pixelate_equals_the_block_loop_exactly(self, shape):
        img = np.random.default_rng(5).standard_normal(shape) * 3.0 + 0.7
        for severity, block in zip(range(1, 6), (2, 3, 4, 5, 6)):
            assert np.array_equal(corrupt(img, "pixelate", severity), naive_pixelate(img, block))

    def test_pixelate_and_contrast_equal_their_np_mean_forms_exactly(self):
        for label, img in kernel_inputs():
            for severity in range(1, 6):
                block = _PIXELATE_BLOCKS[severity - 1]
                factor = _CONTRAST_FACTORS[severity - 1]
                out = corrupt(img, "pixelate", severity)
                assert np.isfinite(out).all(), label
                assert np.array_equal(out, mean_pixelate(img, block)), label
                contrast = corrupt(img, "contrast", severity)
                assert np.array_equal(contrast, mean_contrast(img, factor)), label

    def test_cached_pixel_blocks_are_read_only(self):
        order, _, counts, back = _pixel_layout(13, 7, 4)
        for arr in (order, counts, back):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_gauss_noise_needs_rng_and_is_seeded(self):
        img = np.zeros((4, 4, 1))
        with pytest.raises(ValueError):
            corrupt(img, "gauss_noise", 1)
        a = corrupt(img, "gauss_noise", 3, stream(5))
        b = corrupt(img, "gauss_noise", 3, stream(5))
        assert np.array_equal(a, b)
        assert a.std() == approx(0.4, rel=0.3)

    def test_gauss_blur_deterministic(self):
        img = np.random.default_rng(3).standard_normal((8, 8, 1))
        assert np.array_equal(corrupt(img, "gauss_blur", 2), corrupt(img, "gauss_blur", 2))

    def test_all_kinds_preserve_shape(self):
        img = np.random.default_rng(4).standard_normal((16, 16, 1))
        for kind in CORRUPTION_KINDS:
            out = corrupt(img, kind, 3, stream(0))
            assert out.shape == img.shape


class TestCorruptionCell:
    def test_stack_and_list_give_the_same_cell(self):
        stack = np.random.default_rng(6).standard_normal((5, 8, 7, 2))
        for kind in CORRUPTION_KINDS:
            a = corruption_cell(stack, kind, 3, seed=1)
            b = corruption_cell(list(stack), kind, 3, seed=1)
            assert a.shape == stack.shape
            assert np.array_equal(a, b)

    def test_ragged_images_are_a_data_error(self):
        images = [np.zeros((8, 8, 1)), np.zeros((8, 7, 1))]
        with pytest.raises(DataError, match=r"one \(H, W, C\) shape"):
            corruption_cell(images, "pixelate", 2, seed=0)

    def test_three_d_stack_names_its_shape(self):
        with pytest.raises(DataError, match=r"\(4, 8, 8\)"):
            corruption_cell(np.zeros((4, 8, 8)), "contrast", 2, seed=0)

    # SHA-256 of each cell at severities 1..5, taken from the per-block-shape
    # pixelation (one gather and one scatter per block shape).  No kind here
    # calls exp or log, so the digests hold at every SIMD dispatch level.
    @pytest.mark.parametrize(
        "shape, kind, digests",
        [
            ((8, 16, 16, 1), "gauss_noise", (
                "d962ef8bf18271e89020242376d903674efac31232960b2f3c07fbd5e59391b3",
                "857d6a174c5d9b12a25efe4dd96b671e891a9acabf8d863624a19c9d42a99cc2",
                "4ed701ff6cb1188a3b37214139fcfccb0b944d3dad63da9247f1ba394a213a7b",
                "7801260beb6c38ead5e070e290aa90c0b3ac3645a7647e1829c8074c79424934",
                "bf3a5c4538ae7c493ec983c34d90f831e53e9b355a717549e4894fa74855e1bf",
            )),
            ((8, 16, 16, 1), "contrast", (
                "0131fc7dceb818983c376f946b8afd15bcab334b5ae7a7aa6b67ed4a602b0994",
                "12323842f1889b26721bdd205c047004391c7055bac6de5d72a01c99f759257c",
                "350e8c2c4343eafb3a1b145b1733bb8e871e147fef07a9fed60d5f9689776352",
                "d182208dd5f5b354601ba1fb266b762e067d8e4e861c1401b144b0843642fc9f",
                "ae348c350a661ad4b28d6029518b2a284c60c614d04233ddceefbd1f6d2017b1",
            )),
            ((8, 16, 16, 1), "pixelate", (
                "cb9c7e769b21d7f053ef489287774f19c4cad2d7f9bdc67aee70680d7e72a468",
                "343c4706de85b756824f38330dd70262f176365e7ea2fbb9f73352233e4e2871",
                "71a09a4c75802b56988acbb317019191ec750256b0de91029d6e241ff2d9b3c3",
                "2a96e955f8b9ace1c3cc4ab57d274f1d3b2c785ee9db324fb0d8e4f5dbe752d9",
                "13b2045360f2dd5e5c2a9b7d81c640c42512a644a227d74e3259bc8bf5b63289",
            )),
            ((6, 13, 7, 3), "gauss_noise", (
                "e4c2f572a447b9de3ac4424b263ab5692669b8ab12db1b9e2104b3feb5e6b890",
                "881a1860bfa9cac9892dc3e834ea0d900139694c01a6457026a9d793334a5403",
                "1b8069521038fe0a9cc4697f04eacb4c0230368b2fa7e31769bb66138ab2addf",
                "824a163e45c4924db22606412e65323bf6672abb71dcecbb47132b6e4842aeb8",
                "d70c781c6377f032795a8088576d4b228fd344ad87c215e102ea6fbe6ef7cad6",
            )),
            ((6, 13, 7, 3), "contrast", (
                "43dbf8c3dc01d322c8b4e8adf0788342a65770a14fdf33648e7e3190a85a4955",
                "e68b37dc8dc0f285526fd65a9336a18fb7e58dd29a0b639703c015e379f3902d",
                "9d75d1c0f09b273800d9cd6ef02445f9d58a6928497d527b6891430ff4ce0a5d",
                "08c47c83adf585dfa843606e5344356d7b1184df5f0e0e25b728fb73d7cb8d84",
                "dbc77425aeb20887ad7964da5100a0c120b6666474fe6bb3730cd2322de60636",
            )),
            ((6, 13, 7, 3), "pixelate", (
                "accb1834a1e4263fafc945d2130ce2b2ebd100c4afab683a8f471cc6172640d5",
                "66fe3bc45e6736dc58d7f9cb87a823cfb79dabd8de0c563bdca5446eaa01bbc1",
                "88240273180218b00341e221f42afd151e9a2a073e844cc9d927092bca1c8455",
                "16f1fbe1f67201a7547a3e63cd4a11d799d6aa22d4ef6d94d26d3766b4b160fb",
                "fab6670d8b0dd5451190d1e949dc601efe4483eafc278585927e92a8b85327c6",
            )),
        ],
        ids=[
            "gauss_noise-16x16x1", "contrast-16x16x1", "pixelate-16x16x1",
            "gauss_noise-13x7x3", "contrast-13x7x3", "pixelate-13x7x3",
        ],
    )
    def test_cells_are_pinned(self, shape, kind, digests):
        stack = np.random.default_rng(sum(shape)).standard_normal(shape)
        for severity, digest in zip(range(1, 6), digests):
            out = corruption_cell(stack, kind, severity, seed=2**63 + 9)
            assert hashlib.sha256(out.tobytes()).hexdigest() == digest, severity

    def test_one_nan_pixel_is_a_data_error(self):
        # The cell's stack check is the only scan of its rows; corrupt trusts them.
        stack = np.zeros((3, 8, 8, 1))
        stack[2, 5, 1, 0] = np.nan
        for kind in CORRUPTION_KINDS:
            with pytest.raises(DataError, match="non-finite"):
                corruption_cell(stack, kind, 2, seed=0)

    def test_empty_stack_gives_an_empty_stack(self):
        for kind in CORRUPTION_KINDS:
            out = corruption_cell(np.zeros((0, 8, 6, 3)), kind, 4, seed=0)
            assert out.shape == (0, 8, 6, 3) and out.dtype == np.float64

    def test_bad_severity_is_rejected_before_any_image(self):
        with pytest.raises(ValueError):
            corruption_cell(np.zeros((0, 8, 6, 3)), "pixelate", True, seed=0)


class TestInfoCurve:
    def test_starts_at_exactly_one(self, texture_split):
        images, stats = texture_split
        cfg = ScheduleConfig.for_width(16)
        points = info_curve(images[:8], stats, cfg, [0.0, 0.5, 1.0])
        assert points[0].t == 0.0
        assert points[0].mean_ratio == approx(1.0, abs=1e-9)

    def test_monotone_nonincreasing(self, texture_split):
        images, stats = texture_split
        cfg = ScheduleConfig.for_width(16)
        grid = [i / 5 for i in range(6)]
        points = info_curve(images, stats, cfg, grid)
        ratios = [p.mean_ratio for p in points]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a * 1.01  # codec noise allowance

    def test_order_invariant(self, texture_split):
        images, stats = texture_split
        cfg = ScheduleConfig.for_width(16)
        grid = [0.0, 0.4, 0.8]
        fwd = info_curve(images[:10], stats, cfg, grid)
        rev = info_curve(images[:10][::-1], stats, cfg, grid)
        for a, b in zip(fwd, rev):
            assert a.mean_ratio == approx(b.mean_ratio, abs=1e-12)

    def test_requires_t_zero(self, texture_split):
        images, stats = texture_split
        cfg = ScheduleConfig.for_width(16)
        with pytest.raises(DataError):
            info_curve(images[:2], stats, cfg, [0.1, 0.5])

    def test_two_dimensional_image_is_a_data_error(self):
        stats = ChannelStats(mean=np.array([0.5]), std=np.array([0.25]))
        with pytest.raises(DataError):
            info_curve([np.zeros((4, 4))], stats, ScheduleConfig.for_width(4), [0.0, 1.0])

    @pytest.mark.parametrize("count", [2, 40])
    def test_images_of_different_shapes_are_a_data_error(self, texture_split, count):
        images, stats = texture_split
        mixed = list(images[: count - 1]) + [images[0][:, :12]]
        with pytest.raises(DataError):
            info_curve(mixed, stats, ScheduleConfig.for_width(16), [0.0, 1.0])

    @pytest.mark.parametrize(
        "count,height,width,channels,seed,digest",
        [
            (40, 16, 12, 1, 5, "08121b70e0e20010b2bb399c25467d34e241fd77fda27311dbf03f54a087ca03"),
            (36, 12, 12, 3, 6, "39eeed5b8cbbc61416973454a0faae20b0faa5a4fbdeb0c20d56f46c804ca3da"),
        ],
    )
    def test_ratios_are_pinned(self, count, height, width, channels, seed, digest):
        # Digests of the curve as the per-image blur-and-encode loop computed it.
        gray = fractal_textures(count * channels, height, width, seed=seed)
        raw = np.concatenate(np.split(gray, channels), axis=3)
        stats = compute_channel_stats(raw)
        images = list((raw - stats.mean) / stats.std)
        cfg = ScheduleConfig.for_width(width)
        points = info_curve(images, stats, cfg, np.linspace(0.0, 1.0, 6))
        ratios = np.array([p.mean_ratio for p in points])
        assert hashlib.sha256(ratios.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("count", [1, 31, 32, 33, 65])
    def test_equals_its_definition(self, count, channels):
        # Chunks of 32 images: counts on both sides of one and two chunk edges.
        gray = fractal_textures(count * channels, 8, 6, seed=count)
        raw = np.concatenate(np.split(gray, channels), axis=3)
        stats = compute_channel_stats(raw)
        images = list((raw - stats.mean) / stats.std)
        cfg = ScheduleConfig.for_width(6)
        grid = [0.7, 0.0, 0.3, 0.7, 1.0]
        points = info_curve(images, stats, cfg, grid)
        assert [p.t for p in points] == grid
        assert [p.mean_ratio for p in points] == info_curve_reference(images, stats, cfg, grid)

    def test_a_sigma_min_whose_tau_underflows_is_refused(self):
        # dissipation_time(1e-200) is 0.0: blurring at t = 0 would be a copy
        # and at t = 0.5 a DCT round trip, so the curve would not start at 1.
        with pytest.raises(ValueError, match="sigma_min 1e-200 is too small"):
            ScheduleConfig.for_width(16, sigma_min=1e-200)

    def test_channel_mismatch_is_found_before_any_blur(self, texture_split, monkeypatch):
        images, stats = texture_split
        rgb = [np.repeat(img, 3, axis=2) for img in images[:2]]

        def no_dct(_):
            raise AssertionError("info_curve transformed images it should have refused")

        monkeypatch.setattr(analysis, "dct2d", no_dct)
        monkeypatch.setattr(mollifier, "dct2d", no_dct)
        with pytest.raises(DataError, match="images have 3 channels but stats describe 1"):
            info_curve(rgb, stats, ScheduleConfig.for_width(16), [0.0, 1.0])

    def test_stack_quantizes_as_its_images(self, texture_split):
        images, stats = texture_split
        stack = np.stack(images) * 3.0
        expected = np.stack(
            [np.round(np.clip(img * stats.std + stats.mean, 0.0, 1.0) * 255.0).astype(np.uint8) for img in stack]
        )
        assert np.array_equal(quantize_for_png(stack, stats), expected)

    def test_quantize_checks_channels(self, texture_split):
        _, stats = texture_split
        with pytest.raises(DataError, match="channels"):
            quantize_for_png(np.zeros((2, 4, 4, 3)), stats)

    def test_quantization_path(self):
        stats = ChannelStats(mean=np.array([0.5]), std=np.array([0.25]))
        img = np.array([[[-2.0], [0.0], [2.0], [10.0]]])  # destandardizes to 0,.5,1,3
        q = quantize_for_png(img, stats)
        assert q.tolist() == [[[0], [128], [255], [255]]]


class TestSpectralDelta:
    def test_zero_for_identical(self, texture_split):
        images, _ = texture_split
        delta = spectral_delta(images[:4], images[:4])
        assert np.all(delta == 0.0)

    def test_sign_symmetric(self, texture_split):
        images, _ = texture_split
        bump = np.random.default_rng(6).standard_normal(images[0].shape) * 0.1
        plus = spectral_delta(images[:4], [img + bump for img in images[:4]])
        minus = spectral_delta(images[:4], [img - bump for img in images[:4]])
        assert plus == approx(minus, abs=1e-12)

    def test_noise_is_spectrally_flat(self, texture_split):
        images, _ = texture_split
        rng = stream(7)
        noisy = [corrupt(img, "gauss_noise", 3, rng) for img in images]
        delta = spectral_delta(images, noisy)
        _, means = annulus_means(delta)
        assert float(means.std() / means.mean()) < 0.3

    def test_blur_decays_with_frequency(self, texture_split):
        images, _ = texture_split
        blurred = [corrupt(img, "gauss_blur", 3) for img in images]
        delta = spectral_delta(images, blurred)
        centers, means = annulus_means(delta)
        half = len(centers) // 2
        rate, r2 = exp_decay_fit(centers[half:], means[half:])
        assert rate < 0.0
        assert r2 >= 0.8

    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    @pytest.mark.parametrize("count", [1, 40, 64])
    def test_equals_the_per_image_loop_exactly(self, kind, count):
        raw = fractal_textures(count * 2, 12, 20, seed=count)
        clean = np.concatenate(np.split(raw, 2), axis=3) * 2.0 - 1.0
        corrupted = corruption_cell(clean, kind, 3, seed=4)
        assert np.array_equal(spectral_delta(clean, corrupted), loop_spectral_delta(clean, corrupted))

    def test_shape_mismatch_rejected(self, texture_split):
        images, _ = texture_split
        with pytest.raises(DataError):
            spectral_delta(images[:3], images[:2])
        with pytest.raises(DataError):
            spectral_delta([np.zeros((4, 4, 1))], [np.zeros((5, 4, 1))])


class TestHelpers:
    def test_annulus_means_excludes_dc(self):
        grid = np.zeros((8, 8))
        grid[0, 0] = 100.0  # DC only
        _, means = annulus_means(grid)
        assert np.nansum(means) == 0.0

    def test_exp_decay_fit_recovers_rate(self):
        x = np.linspace(0.2, 1.4, 12)
        y = 3.0 * np.exp(-2.5 * x)
        rate, r2 = exp_decay_fit(x, y)
        assert rate == approx(-2.5, rel=1e-9)
        assert r2 == approx(1.0)

    def test_pearson_perfect_line(self):
        x = np.arange(10.0)
        assert pearson(x, 2.0 * x + 1.0) == approx(1.0)
        assert pearson(x, -x) == approx(-1.0)
