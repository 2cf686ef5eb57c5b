"""Input mollification: schedule-driven noising and heat-equation blurring.

Noising mixes a standardized image with unit Gaussian noise in
variance-preserving proportions.  Blurring evolves the image under the
heat equation, realized as exponential attenuation of DCT coefficients;
the DC coefficient is untouched, so blurring never shifts channel means.
Batch mollification picks one transform (or none) per image, draws the
temperature from the Beta prior, and attaches the matching label-decay
weight.  All per-image randomness derives from (seed, image index), so
outcomes do not depend on processing order: image ``i`` draws its mode,
then its temperature, then its noise from one generator keyed by the Philox
key ``[seed, i]`` (:func:`streams.row_keys`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .schedules import (
    ScheduleConfig,
    alpha_sigma,
    blur_sigma,
    dissipation_time,
    gamma_blur,
    gamma_noise,
    sample_temperature,
)
from .streams import row_keys, stream
from .tensors import dct2d, ensure_image, ensure_image_or_stack, ensure_stack, idct2d


def noise_image(img: np.ndarray, t: float, rng: np.random.Generator) -> np.ndarray:
    """Mix ``img`` with unit Gaussian noise: alpha*img + sigma*eps."""
    img = ensure_image(img)
    alpha, sigma = alpha_sigma(t)
    return alpha * img + sigma * rng.standard_normal(img.shape)


@lru_cache(maxsize=64)
def _heat_rates(height: int, width: int) -> np.ndarray:
    """Read-only per-frequency decay rates pi^2 (w^2/W^2 + h^2/H^2)."""
    fh = (np.arange(height) / height) ** 2
    fw = (np.arange(width) / width) ** 2
    rates = (math.pi**2) * (fh[:, None] + fw[None, :])
    rates.setflags(write=False)
    return rates


def heat_multipliers(height: int, width: int, tau: float) -> np.ndarray:
    """Per-frequency attenuation exp(-tau * pi^2 (w^2/W^2 + h^2/H^2))."""
    if not 0 <= tau < math.inf:
        raise ValueError(f"dissipation time must be finite and non-negative, got {tau}")
    # Beyond 1e300, -tau * rate would overflow, with a warning.  At 1e300 every positive
    # rate, at least pi^2 / max(H, W)^2, already gives exp(-tau * rate) == 0.0 exactly,
    # and the rate 0 gives 1.0 at any tau, so the clamp changes no bit.
    return np.exp(-min(tau, 1e300) * _heat_rates(height, width))


def heat_blur(images: np.ndarray, tau: float) -> np.ndarray:
    """Evolve an (H, W, C) image, or each image of an (N, H, W, C) stack, under
    the heat equation for time ``tau`` (pixels^2)."""
    images = ensure_image_or_stack(images)
    return images.copy() if tau == 0.0 else blur_from_dct(dct2d(images), tau)


def blur_from_dct(coeffs: np.ndarray, tau: float) -> np.ndarray:
    """:func:`heat_blur` after its :func:`dct2d`: ``coeffs`` attenuated for ``tau``, inverted."""
    return idct2d(coeffs * heat_multipliers(coeffs.shape[-3], coeffs.shape[-2], tau)[:, :, None])


def blur_image(img: np.ndarray, t: float, cfg: ScheduleConfig) -> np.ndarray:
    """:func:`heat_blur` of an image or a stack at the schedule's kernel scale for ``t``."""
    return heat_blur(img, dissipation_time(blur_sigma(t, cfg)))


# Each row's mode, by its code in mollify_batch.
_MODES = np.array(["none", "noise", "blur"], dtype="U5")


def mollify_batch(
    imgs: np.ndarray | Sequence[np.ndarray], cfg: ScheduleConfig, seed: int
) -> np.recarray:
    """Independently mollify each image of a ``(B, H, W, C)`` stack.

    Returns a record array with one row per image and the fields ``image``
    (H, W, C), ``gamma``, ``mode`` (``"none"``, ``"noise"`` or ``"blur"``)
    and ``t``.  Image ``i`` draws from one stream, ``rng =
    Generator(Philox(key=np.array([seed, i], dtype=np.uint64)))``: the mode's
    uniform ``rng.random()``, then, unless the mode is none, ``t =
    sample_temperature(rng, cfg)``, then, for a noise row, the noise that
    ``noise_image(img, t, rng)`` draws, so that call replays the row.
    ``seed`` must lie in ``[0, 2**64)``.  The batch's noise rows are mixed in
    one step and its blur rows blurred one by one.
    """
    stack = ensure_stack(imgs)
    n = stack.shape[0]
    images = stack.copy()
    gammas = np.zeros(n)
    temps = np.zeros(n)
    codes = np.zeros(n, dtype=np.int8)  # an index into _MODES
    # Row i of eps and weights belongs to the i-th noise row, noisy[i].
    eps = np.empty_like(stack)
    noisy: list[int] = []
    weights: list[tuple[float, float]] = []
    p_none, p_noise, _ = cfg.mode_probs
    for idx, key in enumerate(row_keys(seed, n)):
        rng = stream(key)
        u = rng.random()
        if u < p_none:
            continue
        t = temps[idx] = sample_temperature(rng, cfg)
        if u < p_none + p_noise:
            rng.standard_normal(out=eps[len(noisy)])
            noisy.append(idx)
            weights.append(alpha_sigma(t))
            gammas[idx] = gamma_noise(t, cfg.k_noise)
            codes[idx] = 1
        else:
            images[idx] = blur_image(stack[idx], t, cfg)
            gammas[idx] = gamma_blur(t, cfg.k_blur)
            codes[idx] = 2
    if noisy:
        # noise_image's alpha*img + sigma*eps, in place; the sum commutes bit for bit.
        alpha, sigma = (np.array(w)[:, None, None, None] for w in zip(*weights))
        mixed, signal = eps[: len(noisy)], stack[noisy]
        mixed *= sigma
        signal *= alpha
        mixed += signal
        images[noisy] = mixed
    modes = _MODES[codes]
    fields = [("image", np.float64, stack.shape[1:]), ("gamma", np.float64),
              ("mode", modes.dtype), ("t", np.float64)]
    return np.rec.fromarrays([images, gammas, modes, temps], dtype=fields)
