"""Procedural desk-scale image datasets.

``fractal_textures`` builds grayscale images with a 1/f amplitude spectrum,
a stand-in for natural image statistics in compression and spectral
experiments.  ``grating_dataset`` builds a small classification problem
whose classes are grating orientations with randomized phase, frequency,
and amplitude; class identity lives in low spatial frequencies, so the
problem survives moderate blurring and noising.  Raw images are in [0, 1];
``standardized_dataset`` wraps them into a MOL1 dataset with computed
channel statistics.

Both generators compute a chunk of images at a time with stack operations.
Each image's random draws still come from the seed's stream in the same
order as in a loop over images, and every pixel is computed with the same
floating-point operations, so the output equals the per-image loop bit for
bit and does not depend on the chunk size.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError
from .mol1 import Mol1Dataset
from .streams import stream
from .tensors import compute_channel_stats, ensure_stack, idct2d, radial_frequencies


# The amplitude spectrum of fractal textures falls off as 1/f^_FRACTAL_EXPONENT.
_FRACTAL_EXPONENT = 1.0


def fractal_textures(count: int, height: int = 32, width: int = 32, seed: int = 0) -> np.ndarray:
    """(N, H, W, 1) grayscale textures with a 1/f amplitude spectrum."""
    rng = stream(seed)
    floor = 1.0 / max(height, width)
    amplitude = (radial_frequencies(height, width) + floor) ** (-_FRACTAL_EXPONENT)
    amplitude[0, 0] = 0.0  # no DC component; brightness is set afterwards
    coefs = rng.standard_normal((count, height, width)) * amplitude
    imgs = idct2d(coefs[:, :, :, None])[:, :, :, 0]
    mean = imgs.mean(axis=(1, 2), keepdims=True)
    spread = imgs.std(axis=(1, 2), keepdims=True)
    spread[spread == 0] = 1.0
    return np.clip(0.5 + 0.15 * (imgs - mean) / spread, 0.0, 1.0)[:, :, :, None]


# Amplitude and cycles-per-image range of each oriented component: five
# octaves with a roughly 1/f amplitude profile, so class information dies
# off gradually (scale by scale) under blurring or pixelation.
_TEXTURE_COMPONENTS = (
    (0.18, (6.2, 7.2)),
    (0.13, (4.3, 5.1)),
    (0.10, (3.0, 3.6)),
    (0.075, (2.1, 2.5)),
    (0.06, (1.4, 1.8)),
)
# Standard deviation of the Gaussian pixel noise added to every texture.
_PIXEL_NOISE = 0.02
# Images per pass of grating_dataset: enough to amortize each array
# operation's call cost, few enough to keep the temporaries small.
_GRATING_CHUNK = 256


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """``Generator.uniform(low, high)`` from its ``random()`` draws ``u``, bit for bit."""
    return low + (high - low) * u


def grating_dataset(
    count: int,
    height: int = 16,
    width: int = 16,
    num_classes: int = 4,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-scale oriented-texture images; class c has orientation c*pi/C.

    Each image superimposes gratings at several spatial scales, all at the
    class orientation, with independent random phases, frequency jitter,
    an orientation wobble, and mild pixel noise.  Fine scales carry most
    of the contrast but die first under blurring or pixelation; coarser
    scales survive longer, so class information degrades gradually with
    corruption strength instead of all at once.  Mean brightness is 0.5
    for every image and carries no class cue.
    """
    rng = stream(seed)
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    images = np.empty((count, height, width, 1))
    labels = rng.integers(0, num_classes, size=count)
    for start in range(0, count, _GRATING_CHUNK):
        chunk = labels[start : start + _GRATING_CHUNK]
        n = len(chunk)
        # Per image, in stream order: the orientation wobble and a brightness
        # jitter of width 0 (drawn to keep the stream's layout), the pixel
        # noise, then each component's scale, frequency and phase.
        wobble = np.empty((n, 2))
        noise = np.empty((n, height, width))
        draws = np.empty((n, len(_TEXTURE_COMPONENTS), 3))
        for i in range(n):
            rng.random(out=wobble[i])
            rng.standard_normal(out=noise[i])
            rng.random(out=draws[i])
        theta = math.pi * chunk / num_classes + _uniform(wobble[:, 0], -1.0, 1.0) * (math.pi / 24)
        cos = np.array([math.cos(x) for x in theta])[:, None, None]
        sin = np.array([math.sin(x) for x in theta])[:, None, None]
        axis = rows * cos + cols * sin
        pixel = 0.5 + _PIXEL_NOISE * noise
        for k, (amp, cycles) in enumerate(_TEXTURE_COMPONENTS):
            scale = amp * _uniform(draws[:, k, 0], 0.8, 1.2)
            freq = _uniform(draws[:, k, 1], *cycles)
            phase = _uniform(draws[:, k, 2], 0.0, 2.0 * math.pi)
            wave = np.cos(2.0 * math.pi * freq[:, None, None] * axis / width + phase[:, None, None])
            pixel = pixel + scale[:, None, None] * wave
        images[start : start + n, :, :, 0] = np.clip(pixel, 0.0, 1.0)
    return images, labels.astype(np.int64)


def standardized_dataset(
    raw_images: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    provenance: str = "",
    stats=None,
) -> Mol1Dataset:
    """Standardize raw [0, 1] images into a MOL1 dataset.

    ``raw_images`` is an (N, H, W, C) stack or a sequence of equal-shape
    (H, W, C) images.  When ``stats`` is omitted they are computed from
    ``raw_images``; pass a training split's statistics to standardize a
    held-out split.
    """
    raw_images = ensure_stack(raw_images)
    if stats is None:
        stats = compute_channel_stats(raw_images)
    if raw_images.shape[3] != stats.channels:
        raise DataError(
            f"images have {raw_images.shape[3]} channels but stats describe {stats.channels}"
        )
    images = (raw_images - stats.mean) / stats.std
    return Mol1Dataset(
        images=images,
        labels=labels,
        num_classes=num_classes,
        stats=stats,
        provenance=provenance,
    )
