"""Procedural desk-scale image datasets.

``fractal_textures`` builds grayscale images with a 1/f amplitude spectrum,
a stand-in for natural image statistics in compression and spectral
experiments.  ``grating_dataset`` builds a small classification problem
whose classes are grating orientations with randomized phase, frequency,
and amplitude; class identity lives in low spatial frequencies, so the
problem survives moderate blurring and noising.  Raw images are in [0, 1];
``standardized_dataset`` wraps them into a MOL1 dataset with computed
channel statistics.
"""

from __future__ import annotations

import math

import numpy as np

from .mol1 import Mol1Dataset
from .streams import stream
from .tensors import compute_channel_stats, idct2d


# The amplitude spectrum of fractal textures falls off as 1/f^_FRACTAL_EXPONENT.
_FRACTAL_EXPONENT = 1.0


def fractal_textures(count: int, height: int = 32, width: int = 32, seed: int = 0) -> np.ndarray:
    """(N, H, W, 1) grayscale textures with a 1/f amplitude spectrum."""
    rng = stream(seed)
    fh = np.arange(height) / height
    fw = np.arange(width) / width
    radius = np.sqrt(fh[:, None] ** 2 + fw[None, :] ** 2)
    floor = 1.0 / max(height, width)
    amplitude = (radius + floor) ** (-_FRACTAL_EXPONENT)
    amplitude[0, 0] = 0.0  # no DC component; brightness is set afterwards
    images = np.empty((count, height, width, 1))
    for i in range(count):
        coefs = rng.standard_normal((height, width)) * amplitude
        img = idct2d(coefs[:, :, None])[:, :, 0]
        spread = img.std()
        if spread == 0:
            spread = 1.0
        images[i, :, :, 0] = np.clip(0.5 + 0.15 * (img - img.mean()) / spread, 0.0, 1.0)
    return images


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

    def wave(theta: float, cycles: tuple[float, float]) -> np.ndarray:
        freq = rng.uniform(*cycles)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        axis = rows * math.cos(theta) + cols * math.sin(theta)
        return np.cos(2.0 * math.pi * freq * axis / width + phase)

    for i in range(count):
        theta = math.pi * labels[i] / num_classes + rng.uniform(-1, 1) * (math.pi / 24)
        rng.random()  # a brightness jitter of width 0, drawn to keep the stream's layout
        pixel = 0.5 + _PIXEL_NOISE * rng.standard_normal((height, width))
        for amp, cycles in _TEXTURE_COMPONENTS:
            pixel = pixel + amp * rng.uniform(0.8, 1.2) * wave(theta, cycles)
        images[i, :, :, 0] = np.clip(pixel, 0.0, 1.0)
    return images, labels.astype(np.int64)


def standardized_dataset(
    raw_images: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    provenance: str = "",
    stats=None,
) -> Mol1Dataset:
    """Standardize raw [0, 1] images into a MOL1 dataset.

    When ``stats`` is omitted they are computed from ``raw_images``; pass a
    training split's statistics to standardize a held-out split.
    """
    raw_images = np.asarray(raw_images, dtype=np.float64)
    if stats is None:
        stats = compute_channel_stats(raw_images)
    images = (raw_images - stats.mean) / stats.std
    return Mol1Dataset(
        images=images,
        labels=labels,
        num_classes=num_classes,
        stats=stats,
        provenance=provenance,
    )
