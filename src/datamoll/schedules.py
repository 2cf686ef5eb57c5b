"""Scalar schedules driving mollification and label decay.

A temperature ``t`` in [0, 1] controls corruption intensity: t = 0 leaves
the input clean, t = 1 destroys it (pure noise, or blur at the maximum
scale).  Noising mixes signal and noise with variance-preserving weights
``alpha = cos(t*pi/2)`` and ``sigma = sin(t*pi/2)``; blurring follows a
log-spaced kernel scale between ``sigma_min`` and ``sigma_max``.  Label
decay gamma grows monotonically from 0 to 1: for noising it tracks the
signal-to-noise ratio, for blurring the (linearly approximated) fraction
of image information removed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScheduleConfig:
    """Hyperparameters for the input and label schedules.

    ``sigma_max`` conventionally equals the image width of the dataset in
    use, so it has no universal default and must be given explicitly (see
    :meth:`for_width`).  ``mode_probs`` are the probabilities of applying
    no transform, noising, or blurring to a batch element.
    """

    sigma_max: float
    sigma_min: float = 0.3
    k_noise: float = 1.0
    k_blur: float = 1.0
    beta_alpha: float = 1.0
    beta_beta: float = 2.0
    mode_probs: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_max", float(self.sigma_max))
        object.__setattr__(self, "sigma_min", float(self.sigma_min))
        probs = tuple(float(p) for p in self.mode_probs)
        object.__setattr__(self, "mode_probs", probs)
        if not 0.0 < self.sigma_min < self.sigma_max < math.inf:
            raise ValueError(
                f"need 0 < sigma_min < sigma_max < inf, got ({self.sigma_min}, {self.sigma_max})"
            )
        if dissipation_time(self.sigma_min) < sys.float_info.min:  # so tau > 0 at every t
            raise ValueError(f"sigma_min {self.sigma_min} is too small: dissipation time underflows")
        if not math.isfinite(dissipation_time(self.sigma_max)):  # so tau < inf at every t
            raise ValueError(f"sigma_max {self.sigma_max} is too large: dissipation time overflows")
        if not (0 < self.k_noise < math.inf and 0 < self.k_blur < math.inf):
            raise ValueError("label-decay slopes k_noise and k_blur must be positive and finite")
        if not (0 < self.beta_alpha < math.inf and 0 < self.beta_beta < math.inf):
            raise ValueError("Beta prior shapes must be positive and finite")
        if len(probs) != 3 or not all(0.0 <= p <= 1.0 for p in probs):
            raise ValueError(f"mode_probs must be three values in [0, 1], got {probs!r}")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError(f"mode_probs must sum to 1, got {sum(probs)!r}")

    @classmethod
    def for_width(cls, width: int, **overrides) -> "ScheduleConfig":
        """Config with ``sigma_max`` set to the image width."""
        return cls(sigma_max=float(width), **overrides)


def _check_t(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0 or math.isnan(t):
        raise ValueError(f"temperature must lie in [0, 1], got {t}")
    return t


def alpha_sigma(t: float) -> tuple[float, float]:
    """Variance-preserving mixing weights (cos(t*pi/2), sin(t*pi/2))."""
    t = _check_t(t)
    return math.cos(t * math.pi / 2), math.sin(t * math.pi / 2)


def snr(t: float) -> float:
    """Signal-to-noise ratio alpha^2/sigma^2; +inf at t = 0, 0 at t = 1."""
    t = _check_t(t)
    var = _noise_variance(t)  # sigma^2; alpha^2 is its complement
    if var == 0.0:
        return math.inf
    return (1.0 - var) / var


def _noise_variance(t: float) -> float:
    # sin(t*pi/2)^2.  The half-angle form is exact at t = 0.5 and t = 1 in
    # floating point but cancels catastrophically for small t, where the
    # direct form is accurate; switch at 0.25 where both agree to 1 ulp.
    if t < 0.25:
        s = math.sin(0.5 * math.pi * t)
        return s * s
    return 1.0 - 0.5 * (1.0 + math.cos(math.pi * t))


def gamma_noise(t: float, k: float) -> float:
    """Label decay (1/(1+SNR))^k, evaluated as sin(t*pi/2)^(2k)."""
    t = _check_t(t)
    if k <= 0:
        raise ValueError(f"slope k must be positive, got {k}")
    return _noise_variance(t) ** k


def blur_sigma(t: float, cfg: ScheduleConfig) -> float:
    """Blur kernel scale, log-interpolated between sigma_min and sigma_max."""
    t = _check_t(t)
    # sigma_min^(1-t) * sigma_max^t == exp((1-t) ln sigma_min + t ln sigma_max),
    # written as powers so the endpoints are exact.
    return cfg.sigma_min ** (1.0 - t) * cfg.sigma_max**t


def dissipation_time(sigma_b: float) -> float:
    """Heat-equation time equivalent to a Gaussian kernel of scale sigma_b."""
    sigma_b = float(sigma_b)
    if not sigma_b >= 0:
        raise ValueError(f"blur scale must be non-negative, got {sigma_b}")
    return 0.5 * sigma_b * sigma_b


def gamma_blur(t: float, k: float) -> float:
    """Label decay t^k, the linear approximation of information removed."""
    t = _check_t(t)
    if k <= 0:
        raise ValueError(f"slope k must be positive, got {k}")
    return t**k


def sample_temperature(rng: np.random.Generator, cfg: ScheduleConfig) -> float:
    """One Beta(alpha, beta) draw built from two standard-Gamma variates.

    Where both variates underflow to 0, as about half of all Gamma(0.001)
    draws and every Gamma(1e-10) draw do, the draw is the Beta's limit for
    vanishing shapes: 1 with probability alpha / (alpha + beta), the chance
    that the first variate is the larger, else 0, decided by one more
    uniform draw.
    """
    g1 = rng.standard_gamma(cfg.beta_alpha)
    g2 = rng.standard_gamma(cfg.beta_beta)
    total = g1 + g2
    if total > 0.0:
        return float(g1 / total)
    return float(rng.random() < cfg.beta_alpha / (cfg.beta_alpha + cfg.beta_beta))
