import math
import sys

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from datamoll.schedules import (
    ScheduleConfig,
    alpha_sigma,
    blur_sigma,
    dissipation_time,
    gamma_blur,
    gamma_noise,
    sample_temperature,
    snr,
)
from datamoll.streams import stream


class TestConfig:
    def test_defaults_valid(self):
        cfg = ScheduleConfig.for_width(16)
        assert cfg.sigma_min == 0.3
        assert cfg.sigma_max == 16.0
        assert sum(cfg.mode_probs) == approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma_max": 0.1},  # sigma_min >= sigma_max
            {"sigma_max": 16.0, "sigma_min": 0.0},
            {"sigma_max": 16.0, "k_noise": 0.0},
            {"sigma_max": 16.0, "beta_beta": -1.0},
            {"sigma_max": 16.0, "mode_probs": (0.5, 0.5, 0.5)},
            {"sigma_max": 16.0, "mode_probs": (-0.1, 0.6, 0.5)},
            {"sigma_max": math.inf},
            {"sigma_max": 16.0, "k_noise": math.nan},
            {"sigma_max": 16.0, "k_blur": math.inf},
            {"sigma_max": 16.0, "beta_alpha": math.inf},
            {"sigma_max": 16.0, "beta_beta": math.nan},
            {"sigma_max": 16.0, "mode_probs": (math.nan, 0.5, 0.5)},
            {"sigma_max": 16.0, "mode_probs": (0.5, math.nan, 0.5)},
            {"sigma_max": 16.0, "sigma_min": 1e-200},  # dissipation time underflows to 0
            {"sigma_max": 16.0, "sigma_min": 2e-154},  # ... or below the smallest normal
            {"sigma_max": 1e200},  # dissipation time overflows to inf
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScheduleConfig(**kwargs)

    @settings(max_examples=300, deadline=None)
    @given(
        scale=st.floats(0.5, 1e3),
        sigma_max=st.floats(1e-150, 1e300),
        t=st.floats(0.0, 1.0),
    )
    def test_dissipation_time_is_positive_near_the_smallest_sigma_min(self, scale, sigma_max, t):
        # sqrt(2 * float_info.min) is the smallest sigma_min whose
        # dissipation time is a normal float.
        sigma_min = math.sqrt(2 * sys.float_info.min) * scale
        sigma_max = max(sigma_max, 2 * sigma_min)
        try:
            cfg = ScheduleConfig(sigma_max=sigma_max, sigma_min=sigma_min)
        except ValueError:
            # Either bound may be the cause: a sigma_max above about 1.9e154
            # has a dissipation time that overflows to inf.
            assert (
                dissipation_time(sigma_min) < sys.float_info.min
                or dissipation_time(sigma_max) == math.inf
            )
            return
        assert 0.0 < dissipation_time(blur_sigma(t, cfg)) < math.inf


class TestAlphaSigma:
    def test_endpoints(self):
        assert alpha_sigma(0.0) == (1.0, 0.0)
        alpha1, sigma1 = alpha_sigma(1.0)
        assert alpha1 == approx(0.0, abs=1e-15)
        assert sigma1 == 1.0

    def test_midpoint(self):
        alpha, sigma = alpha_sigma(0.5)
        assert alpha == approx(0.7071068, abs=1e-6)
        assert sigma == approx(0.7071068, abs=1e-6)

    def test_variance_preserving_on_grid(self):
        for t in np.linspace(0.0, 1.0, 1000):
            alpha, sigma = alpha_sigma(float(t))
            assert abs(alpha * alpha + sigma * sigma - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [-0.1, 1.1, math.nan])
    def test_out_of_range_rejected(self, t):
        with pytest.raises(ValueError):
            alpha_sigma(t)


class TestSnr:
    def test_midpoint_unity(self):
        assert snr(0.5) == approx(1.0, rel=1e-12)

    def test_endpoints(self):
        assert snr(0.0) == math.inf
        assert snr(1.0) == approx(0.0, abs=1e-30)


class TestGammaNoise:
    def test_midpoint_exact(self):
        for k in (0.5, 1.0, 2.0, 3.0):
            assert gamma_noise(0.5, k) == 0.5**k

    def test_endpoints(self):
        for k in (0.5, 1.0, 4.0):
            assert gamma_noise(0.0, k) == 0.0
            assert gamma_noise(1.0, k) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(t=st.floats(0.0, 1.0), k=st.floats(0.1, 8.0))
    def test_equals_sigma_squared_power(self, t, k):
        _, sigma = alpha_sigma(t)
        assert abs(gamma_noise(t, k) - (sigma * sigma) ** k) <= 1e-12

    def test_monotone_on_random_grids(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            grid = np.sort(rng.uniform(0.0, 1.0, 64))
            vals = [gamma_noise(float(t), 1.3) for t in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_bad_slope(self):
        with pytest.raises(ValueError):
            gamma_noise(0.5, 0.0)


class TestBlurSchedule:
    def test_endpoints_exact(self):
        cfg = ScheduleConfig.for_width(64)
        assert blur_sigma(0.0, cfg) == 0.3
        assert blur_sigma(1.0, cfg) == 64.0

    def test_midpoint_geometric_mean(self):
        cfg = ScheduleConfig.for_width(64)
        assert blur_sigma(0.5, cfg) == approx(math.sqrt(0.3 * 64.0), rel=1e-12)
        assert blur_sigma(0.5, cfg) == approx(4.38178, abs=1e-5)

    def test_strictly_increasing(self):
        cfg = ScheduleConfig.for_width(32)
        grid = np.linspace(0.0, 1.0, 500)
        vals = [blur_sigma(float(t), cfg) for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_dissipation_time(self):
        assert dissipation_time(0.0) == 0.0
        assert dissipation_time(4.38178) == approx(9.6, abs=1e-4)
        assert dissipation_time(math.sqrt(2.0)) == approx(1.0, rel=1e-12)
        with pytest.raises(ValueError):
            dissipation_time(-1.0)
        with pytest.raises(ValueError):
            dissipation_time(math.nan)


class TestGammaBlur:
    def test_endpoints(self):
        assert gamma_blur(0.0, 1.0) == 0.0
        assert gamma_blur(1.0, 1.0) == 1.0

    def test_values(self):
        assert gamma_blur(0.25, 0.5) == approx(0.5)
        assert gamma_blur(0.5, 1.0) == 0.5

    def test_monotone(self):
        grid = np.linspace(0.0, 1.0, 300)
        vals = [gamma_blur(float(t), 0.7) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestTemperaturePrior:
    def test_default_prior_mean_one_third(self):
        cfg = ScheduleConfig.for_width(16)
        rng = stream(123)
        draws = np.array([sample_temperature(rng, cfg) for _ in range(100_000)])
        assert draws.mean() == approx(1.0 / 3.0, abs=0.005)
        assert np.all((draws >= 0.0) & (draws <= 1.0))

    def test_uniform_special_case(self):
        cfg = ScheduleConfig(sigma_max=16.0, beta_alpha=1.0, beta_beta=1.0)
        rng = stream(7)
        draws = np.array([sample_temperature(rng, cfg) for _ in range(100_000)])
        stat = scipy.stats.kstest(draws, "uniform").statistic
        assert stat < 0.01

    def test_vanishing_shapes_draw_the_limit_in_one_step(self):
        # Both Gamma variates underflow to 0 at these shapes; the Beta's limit
        # is 1 with probability a / (a + b), else 0.
        cfg = ScheduleConfig(sigma_max=16.0, beta_alpha=1e-300, beta_beta=3e-300)
        rng = stream(11)
        draws = np.array([sample_temperature(rng, cfg) for _ in range(20_000)])
        assert set(np.unique(draws)) <= {0.0, 1.0}
        assert (draws == 1.0).mean() == approx(0.25, abs=0.015)

    def test_fixed_seed_replay(self):
        cfg = ScheduleConfig.for_width(16)
        first = [sample_temperature(stream(42), cfg) for _ in range(1)]
        a = stream(42)
        b = stream(42)
        seq_a = [sample_temperature(a, cfg) for _ in range(50)]
        seq_b = [sample_temperature(b, cfg) for _ in range(50)]
        assert seq_a == seq_b
        assert seq_a[0] == first[0]


class TestRangeInvariants:
    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(0.0, 1.0))
    def test_all_outputs_in_declared_ranges(self, t):
        cfg = ScheduleConfig.for_width(24)
        alpha, sigma = alpha_sigma(t)
        assert -1e-15 <= alpha <= 1.0 and -1e-15 <= sigma <= 1.0
        assert 0.0 <= gamma_noise(t, 1.0) <= 1.0
        assert 0.0 <= gamma_blur(t, 1.0) <= 1.0
        assert cfg.sigma_min <= blur_sigma(t, cfg) <= cfg.sigma_max
        assert snr(t) >= 0.0
