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


def fractal_textures(
    count: int,
    height: int = 32,
    width: int = 32,
    seed: int = 0,
    exponent: float = 1.0,
) -> np.ndarray:
    """(N, H, W, 1) grayscale textures with a 1/f^exponent amplitude spectrum."""
    rng = stream(seed)
    fh = np.arange(height) / height
    fw = np.arange(width) / width
    radius = np.sqrt(fh[:, None] ** 2 + fw[None, :] ** 2)
    floor = 1.0 / max(height, width)
    amplitude = (radius + floor) ** (-exponent)
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
DEFAULT_TEXTURE_COMPONENTS = (
    (0.18, (6.2, 7.2)),
    (0.13, (4.3, 5.1)),
    (0.10, (3.0, 3.6)),
    (0.075, (2.1, 2.5)),
    (0.06, (1.4, 1.8)),
)


def grating_dataset(
    count: int,
    height: int = 16,
    width: int = 16,
    num_classes: int = 4,
    seed: int = 0,
    components=DEFAULT_TEXTURE_COMPONENTS,
    brightness: float = 0.0,
    class_brightness: float = 0.0,
    noise_level: float = 0.02,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-scale oriented-texture images; class c has orientation c*pi/C.

    Each image superimposes gratings at several spatial scales, all at the
    class orientation, with independent random phases, frequency jitter,
    an orientation wobble, and mild pixel noise.  Fine scales carry most
    of the contrast but die first under blurring or pixelation; coarser
    scales survive longer, so class information degrades gradually with
    corruption strength instead of all at once.

    Optionally, mean brightness can act as an extra weak class cue (offset
    ``class_brightness`` per class, uniform jitter ``brightness``); both
    default to off.
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
        level = (
            0.5
            + (labels[i] - (num_classes - 1) / 2.0) * class_brightness
            + rng.uniform(-brightness, brightness)
        )
        pixel = level + noise_level * rng.standard_normal((height, width))
        for amp, cycles in components:
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
