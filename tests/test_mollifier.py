import hashlib
import math
import warnings

import numpy as np
import pytest
from pytest import approx

from datamoll.errors import DataError
from datamoll.mollifier import (
    _heat_rates,
    blur_image,
    heat_blur,
    heat_multipliers,
    mollify_batch,
    noise_image,
)
from datamoll.schedules import (
    ScheduleConfig,
    blur_sigma,
    dissipation_time,
    gamma_blur,
    gamma_noise,
    sample_temperature,
)
from datamoll.streams import stream
from datamoll.tensors import dct2d, idct2d
from tests.oracles import closed_form_heat_multipliers


@pytest.fixture
def cfg():
    return ScheduleConfig.for_width(16)


class TestNoise:
    def test_t_zero_is_identity(self):
        img = np.random.default_rng(0).standard_normal((8, 8, 3))
        out = noise_image(img, 0.0, stream(1))
        assert np.array_equal(out, img)

    def test_t_one_is_independent_noise(self):
        img = np.random.default_rng(1).standard_normal((64, 64, 1))
        out = noise_image(img, 1.0, stream(2))
        a = img.reshape(-1)
        b = out.reshape(-1)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_midpoint_preserves_second_moment(self):
        img = np.random.default_rng(2).standard_normal((256, 256, 1))
        out = noise_image(img, 0.5, stream(3))
        assert float((out**2).mean()) == approx(1.0, rel=0.05)

    def test_deterministic_given_seed(self):
        img = np.random.default_rng(3).standard_normal((4, 4, 1))
        assert np.array_equal(
            noise_image(img, 0.3, stream(9)), noise_image(img, 0.3, stream(9))
        )

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            noise_image(np.zeros((2, 2, 1)), 1.5, stream(0))


class TestBlur:
    def test_nan_tau_rejected(self):
        with pytest.raises(ValueError):
            heat_multipliers(4, 4, math.nan)

    def test_infinite_tau_rejected_by_both_blurs(self):
        # exp(-inf * 0) is NaN at DC, which must not reach an image or a stack.
        with pytest.raises(ValueError, match="finite and non-negative, got inf"):
            heat_blur(np.ones((4, 4, 1)), math.inf)
        with pytest.raises(ValueError, match="finite and non-negative, got inf"):
            heat_blur(np.ones((2, 4, 4, 1)), math.inf)

    def test_zero_tau_identity(self):
        img = np.random.default_rng(4).standard_normal((8, 8, 2))
        assert heat_blur(img, 0.0) == approx(img, abs=1e-6)

    def test_semigroup(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            img = rng.standard_normal((16, 16, 3))
            once = heat_blur(img, 3.5)
            twice = heat_blur(heat_blur(img, 1.5), 2.0)
            assert np.abs(once - twice).max() <= 1e-5

    def test_full_blur_kills_non_dc_energy(self, cfg):
        img = np.random.default_rng(6).standard_normal((16, 16, 1))
        out = blur_image(img, 1.0, cfg)
        before = dct2d(img)
        after = dct2d(out)
        non_dc = np.ones((16, 16, 1), dtype=bool)
        non_dc[0, 0, 0] = False
        ratio = float((after[non_dc] ** 2).sum() / (before[non_dc] ** 2).sum())
        assert ratio < 1.0 / 100.0
        # attenuation of the lowest nonzero frequency bounds the rest
        assert math.exp(-(16.0**2 / 2.0) * math.pi**2 / 16.0**2) == approx(0.0072, abs=5e-4)

    def test_dc_coefficient_preserved(self, cfg):
        img = np.random.default_rng(7).standard_normal((8, 12, 1))
        out = blur_image(img, 0.7, cfg)
        assert dct2d(out)[0, 0, 0] == approx(dct2d(img)[0, 0, 0], rel=1e-12)

    def test_linearity(self, cfg):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 8, 1))
        y = rng.standard_normal((8, 8, 1))
        a, b = 0.7, -1.3
        combined = blur_image(a * x + b * y, 0.5, cfg)
        separate = a * blur_image(x, 0.5, cfg) + b * blur_image(y, 0.5, cfg)
        assert combined == approx(separate, abs=1e-6)

    def test_never_amplifies_any_frequency(self, cfg):
        img = np.random.default_rng(9).standard_normal((8, 8, 1))
        for t in (0.1, 0.5, 0.9):
            before = np.abs(dct2d(img))
            after = np.abs(dct2d(blur_image(img, t, cfg)))
            assert np.all(after <= before + 1e-12)

    def test_multipliers_bounded(self):
        mult = heat_multipliers(16, 16, 2.0)
        assert mult[0, 0] == 1.0
        assert np.all(mult <= 1.0) and np.all(mult > 0.0)

    @pytest.mark.filterwarnings("error")
    def test_multipliers_whose_exponent_overflows_are_exact_limits(self):
        # -tau * rate overflows to -inf for every rate but DC's 0, and
        # exp(-inf) = 0 is exact, so no warning is due.
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.array_equal(heat_multipliers(16, 16, 1e308), expected)

    @pytest.mark.parametrize("tau", [1e300, 9e306, 1.7e308])
    def test_multipliers_near_the_overflow_edge_equal_the_unclamped_form(self, tau):
        # heat_multipliers clamps tau at 1e300.  At 9e306 the unclamped exponent
        # -tau * rate is still finite, and at 1.7e308 it overflows at the larger rates;
        # either way the clamp must give the bits of the unclamped product.
        for h, w in [(16, 16), (13, 7), (1, 1), (2, 9), (1024, 3)]:
            with np.errstate(over="ignore"):
                expected = closed_form_heat_multipliers(h, w, tau)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.array_equal(heat_multipliers(h, w, tau), expected), (h, w)

    @pytest.mark.filterwarnings("error")
    def test_full_blur_at_the_largest_sigma_max_is_each_channel_mean(self):
        # sigma_max = 1.8e154 has a finite dissipation time, 1.62e308.
        cfg = ScheduleConfig(sigma_max=1.8e154)
        stack = np.random.default_rng(12).standard_normal((3, 16, 12, 2))
        means = np.broadcast_to(stack.mean(axis=(1, 2), keepdims=True), stack.shape)
        assert blur_image(stack, 1.0, cfg) == approx(means, abs=1e-12)
        assert blur_image(stack[0], 1.0, cfg) == approx(means[0], abs=1e-12)

    def test_multipliers_equal_the_closed_form_exactly(self):
        taus = [0.0, 1e-3, 0.125, 0.5, 2.0, 7.3, 32.0, 1e4]
        for h, w in [(16, 16), (13, 7), (1, 1), (2, 9), (32, 32)]:
            for tau in taus:
                expected = closed_form_heat_multipliers(h, w, tau)
                assert np.array_equal(heat_multipliers(h, w, tau), expected)

    def test_cached_rates_are_read_only(self):
        rates = _heat_rates(8, 6)
        with pytest.raises(ValueError):
            rates[0, 0] = 1.0
        mult = heat_multipliers(8, 6, 0.5)
        mult[:] = 0.0  # a fresh, writable array: the cache is untouched
        assert np.array_equal(heat_multipliers(8, 6, 0.5), closed_form_heat_multipliers(8, 6, 0.5))

    @pytest.mark.parametrize("shape", [(16, 16, 1), (32, 32, 3), (12, 20, 2)])
    def test_stack_equals_per_image_blur_exactly(self, shape):
        h, w, _ = shape
        grid_cfg = ScheduleConfig.for_width(w)
        taus = [0.0] + [dissipation_time(blur_sigma(t, grid_cfg)) for t in np.linspace(0, 1, 11)]
        stack = np.random.default_rng(h * w).standard_normal((5,) + shape)
        for tau in taus:
            expected = np.stack([heat_blur(img, tau) for img in stack])
            assert np.array_equal(heat_blur(stack, tau), expected)
            assert np.array_equal(heat_blur(np.asfortranarray(stack), tau), expected)

    def test_stack_at_zero_tau_is_a_copy(self):
        stack = np.ones((2, 4, 4, 1))
        out = heat_blur(stack, 0.0)
        out[:] = 0.0
        assert np.all(stack == 1.0)

    @pytest.mark.parametrize(
        "transform",
        [lambda s: heat_blur(s, 0.0), lambda s: heat_blur(s, 1.5), dct2d, idct2d],
        ids=["heat_blur-0", "heat_blur-1.5", "dct2d", "idct2d"],
    )
    def test_stack_holding_nan_rejected(self, transform):
        stack = np.ones((3, 4, 4, 2))
        stack[1, 2, 3, 0] = np.nan
        with pytest.raises(DataError, match="^images contain non-finite values$"):
            transform(stack)

    def test_non_square_supported(self, cfg):
        img = np.random.default_rng(10).standard_normal((8, 16, 1))
        out = blur_image(img, 0.5, cfg)
        assert out.shape == img.shape


class TestMollifyBatch:
    def test_forced_none_is_identity(self):
        cfg = ScheduleConfig(sigma_max=16.0, mode_probs=(1.0, 0.0, 0.0))
        rng = np.random.default_rng(11)
        imgs = rng.standard_normal((8, 4, 4, 1))
        out = mollify_batch(imgs, cfg, seed=5)
        assert np.array_equal(out.image, imgs)
        assert np.all(out.gamma == 0.0)
        assert np.all(out.mode == "none")

    def test_mode_frequencies(self, cfg):
        out = mollify_batch(np.zeros((30_000, 1, 1, 1)), cfg, seed=99)
        modes, counts = np.unique(out.mode, return_counts=True)
        assert modes.tolist() == ["blur", "noise", "none"]
        for count in counts:
            assert count / 30_000 == approx(1.0 / 3.0, abs=0.01)

    def test_fixed_seed_replay(self, cfg):
        rng = np.random.default_rng(12)
        imgs = rng.standard_normal((32, 6, 6, 1))
        first = mollify_batch(imgs, cfg, seed=7)
        second = mollify_batch(imgs, cfg, seed=7)
        assert first.tobytes() == second.tobytes()

    def test_gammas_match_schedule_exactly(self, cfg):
        rng = np.random.default_rng(13)
        imgs = rng.standard_normal((64, 6, 6, 1))
        for ex in mollify_batch(imgs, cfg, seed=21):
            if ex.mode == "none":
                assert ex.gamma == 0.0
            elif ex.mode == "noise":
                assert ex.gamma == gamma_noise(ex.t, cfg.k_noise)
            else:
                assert ex.mode == "blur"
                assert ex.gamma == gamma_blur(ex.t, cfg.k_blur)

    def test_noise_seed_reproduces_image(self, cfg):
        # Row i's stream, NumPy's Philox keyed by [seed, i] as two uint64
        # words, draws u, then t, then the noise.
        rng = np.random.default_rng(14)
        imgs = rng.standard_normal((64, 6, 6, 2))
        p_none, p_noise, _ = cfg.mode_probs
        for seed in (33, 2**64 - 1):
            out = mollify_batch(imgs, cfg, seed=seed)
            assert out.dtype.names == ("image", "gamma", "mode", "t")
            noisy = np.flatnonzero(out.mode == "noise")
            assert noisy.size
            for idx in noisy:
                key = np.array([seed, idx], dtype=np.uint64)
                row = np.random.Generator(np.random.Philox(key=key))
                assert p_none <= row.random() < p_none + p_noise
                t = sample_temperature(row, cfg)
                assert t == out.t[idx]
                assert np.array_equal(noise_image(imgs[idx], t, row), out.image[idx])

    def test_order_independence_of_per_image_draws(self, cfg):
        # the i-th example's parameters depend only on (seed, i), never on
        # what happened to other images
        rng = np.random.default_rng(15)
        imgs = rng.standard_normal((10, 4, 4, 1))
        full = mollify_batch(imgs, cfg, seed=3)
        prefix = mollify_batch(imgs[:4], cfg, seed=3)
        assert prefix.tobytes() == full[:4].tobytes()

    # SHA-256 of the records, from the code that keys each row's stream by
    # the Philox key [seed, row].  The seed is above 2**63.
    @pytest.mark.parametrize(
        "mode_probs, shape, digest",
        [
            ((1 / 3, 1 / 3, 1 / 3), (40, 16, 16, 1),
             "0b91b68626643b3fc4ffd880ac1b9d57e34af0c9520420d6a01c1eb90adbb5a9"),
            ((1 / 3, 1 / 3, 1 / 3), (24, 12, 10, 3),
             "36f1440799f269fedfd5fa785eff72a8fddfa0934bb70bbe8d8fc53e4acb5dd0"),
            ((0.0, 1.0, 0.0), (40, 16, 16, 1),
             "c17765ccde79fb1c81087087252c8c9d7396f7476b5b1f2376f04538c536d7a3"),
            ((0.0, 1.0, 0.0), (24, 12, 10, 3),
             "a79805c4b85a84301c1ea3fdbfe283fa599eb5d9fc42fa1ee15d313efaa32fcb"),
            ((0.0, 0.0, 1.0), (40, 16, 16, 1),
             "c9e022ef0ff0b8c6cd3c284a2a633bcb290db8a1fe510e781e535bcbd9029450"),
            ((0.0, 0.0, 1.0), (24, 12, 10, 3),
             "d1d0d5c7343b2b9f6522dbdf275aa1c9d3110feb47ba65383d95a500fd71a3bc"),
        ],
        ids=["default-gray", "default-rgb", "noise-gray", "noise-rgb", "blur-gray", "blur-rgb"],
    )
    def test_records_are_pinned(self, mode_probs, shape, digest):
        imgs = np.random.default_rng(sum(shape)).standard_normal(shape)
        cfg = ScheduleConfig.for_width(shape[2], mode_probs=mode_probs)
        out = mollify_batch(imgs, cfg, seed=2**63 + 12345)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest

    # SHA-256 of the records, from the code that keys each row's stream by
    # the Philox key [seed, row], at the seeds where a SeedSequence key would
    # change its uint32 word count; the Philox key is two uint64 words at
    # every seed.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "fc73fafaaa8368a8fb900482706cecb0f2c35cbc5f61fc34fc888cf38ac60542"),
            (2**32 - 1, "6b1d093cd584c1d68d39d2a3ec1a2a7d1ca6489d148a985d79728c6a17a0c7ab"),
            (2**32, "31d0b7ad4e2605420e05366792ad7f39dede4f1a02a488ced223238e8d113536"),
            (2**64 - 1, "d31510f2ec72f6c8d5cfee634fd26e4de145aa3160fa800c06dac0031e528b88"),
        ],
        ids=["0", "2**32-1", "2**32", "2**64-1"],
    )
    def test_records_are_pinned_at_word_layout_boundaries(self, seed, digest):
        shape = (40, 16, 16, 1)
        imgs = np.random.default_rng(sum(shape)).standard_normal(shape)
        out = mollify_batch(imgs, ScheduleConfig.for_width(16), seed=seed)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest

    def test_a_seed_of_2_64_is_a_value_error(self):
        imgs = np.random.default_rng(0).standard_normal((4, 16, 16, 1))
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            mollify_batch(imgs, ScheduleConfig.for_width(16), seed=2**64)

    def test_empty_batch(self, cfg):
        out = mollify_batch(np.zeros((0, 4, 4, 1)), cfg, seed=0)
        assert len(out) == 0
        assert out.image.shape == (0, 4, 4, 1)

    def test_stack_and_list_give_equal_outputs(self, cfg):
        rng = np.random.default_rng(16)
        imgs = rng.standard_normal((12, 5, 5, 2))
        from_stack = mollify_batch(imgs, cfg, seed=8)
        from_list = mollify_batch(list(imgs), cfg, seed=8)
        assert from_stack.dtype == from_list.dtype
        assert from_stack.tobytes() == from_list.tobytes()

    @pytest.mark.parametrize(
        "imgs",
        [
            np.zeros((4, 4, 1)),
            [np.zeros((4, 4, 1)), np.zeros((4, 5, 1))],
        ],
        ids=["3-D", "ragged"],
    )
    def test_rejects_input_that_is_not_a_stack(self, cfg, imgs):
        with pytest.raises(DataError):
            mollify_batch(imgs, cfg, seed=0)

    @pytest.mark.parametrize(
        "seed, mode",
        [(8, "none"), (10, "none"), (0, "noise"), (1, "noise"), (2, "blur"), (3, "blur")],
    )
    def test_rejects_a_non_finite_pixel_whatever_mode_it_draws(self, cfg, seed, mode):
        imgs = np.zeros((8, 4, 4, 1))
        # Image 3 draws this mode at this seed, so each mode meets the NaN.
        assert mollify_batch(imgs, cfg, seed).mode[3] == mode
        imgs[3, 1, 2, 0] = np.nan
        with pytest.raises(DataError):
            mollify_batch(imgs, cfg, seed)

    @pytest.mark.parametrize(
        "imgs",
        [np.zeros((2, 0, 4, 1)), np.full((2, 4, 4, 1), np.inf)],
        ids=["empty axis", "non-finite"],
    )
    def test_forced_none_validates_the_stack(self, imgs):
        cfg = ScheduleConfig(sigma_max=16.0, mode_probs=(1.0, 0.0, 0.0))
        with pytest.raises(DataError):
            mollify_batch(imgs, cfg, seed=0)
