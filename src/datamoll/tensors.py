"""Image tensors, channel statistics, and the orthonormal 2-D DCT.

An image is a float array of shape (height, width, channels), row-major
with the channel axis last.  Standardized images have zero mean and unit
variance per channel with respect to dataset-level statistics, which is
the representation every other module assumes; ``synth.standardized_dataset``
builds it.

The DCT here is the orthonormal type-II transform applied separably along
height and width, per channel.  Orthonormal scaling makes the transform an
isometry: ``idct2d(dct2d(x)) == x`` up to roundoff and energy is preserved
(Parseval), which the blurring and spectral-analysis code relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
# The r2r kernel in which scipy.fftpack.dct and idct end.  The DCT calls it
# directly, once per axis, with the arguments scipy passes it, so the bits are
# scipy's; scipy's argument handling would cost 1.5x the transform itself on a
# 16x16 image.
from scipy.fft._pocketfft.pypocketfft import dct as _r2r

from .errors import DataError

STD_FLOOR = 1e-8


def ensure_image(img: np.ndarray) -> np.ndarray:
    """Validate and return ``img`` as a float64 (H, W, C) array."""
    arr = _as_float64(img)
    if arr.ndim != 3:
        raise DataError(f"image must have shape (H, W, C), got shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"image axes must be non-empty, got shape {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise DataError("image contains non-finite values")
    return arr


_FLOAT64 = np.dtype(np.float64)


def _as_float64(images: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """``np.asarray(images, dtype=np.float64)``; a float64 ndarray, which it
    would return as is, skips the call."""
    if type(images) is np.ndarray and images.dtype is _FLOAT64:
        return images
    try:
        return np.asarray(images, dtype=np.float64)
    except ValueError:
        raise DataError("images must share one (H, W, C) shape") from None


def ensure_stack(images: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Validate and return ``images`` as a float64 (N, H, W, C) stack.

    ``images`` is such a stack or a sequence of equal-shape (H, W, C)
    images.  N may be 0; H, W and C may not, and every value must be finite.
    """
    stack = _as_float64(images)
    if stack.ndim != 4 or 0 in stack.shape[1:]:
        raise DataError(f"images must form an (N, H, W, C) stack, got shape {stack.shape}")
    if np.count_nonzero(np.isfinite(stack)) != stack.size:
        raise DataError("images contain non-finite values")
    return stack


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean and strictly positive standard deviation."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.ndim != 1 or std.shape != mean.shape:
            raise DataError(
                f"mean/std must be matching 1-D vectors, got {mean.shape} and {std.shape}"
            )
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(std)):
            raise DataError("channel statistics must be finite")
        if not np.all(std > 0):
            raise DataError("channel std must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @property
    def channels(self) -> int:
        return self.mean.shape[0]


def compute_channel_stats(dataset: Sequence[np.ndarray] | np.ndarray) -> ChannelStats:
    """Two-pass per-channel mean and population std over all pixels.

    ``dataset`` is an (N, H, W, C) stack or a sequence of equal-shape
    (H, W, C) images.  Per-image sums are added in image order, and the std
    is floored at ``STD_FLOOR`` so constant channels stay usable.
    """
    if len(dataset) == 0:
        raise DataError("cannot compute channel statistics of an empty dataset")
    images = ensure_stack(dataset)
    count = images.size // images.shape[3]
    mean = np.cumsum(images.sum(axis=(1, 2)), axis=0)[-1] / count
    sq = np.cumsum(((images - mean) ** 2).sum(axis=(1, 2)), axis=0)[-1]
    std = np.maximum(np.sqrt(sq / count), STD_FLOOR)
    return ChannelStats(mean=mean, std=std)


def ensure_image_or_stack(images: np.ndarray) -> np.ndarray:
    """:func:`ensure_stack` of an (N, H, W, C) stack, else :func:`ensure_image`."""
    arr = _as_float64(images)
    return ensure_stack(arr) if arr.ndim == 4 else ensure_image(arr)


def dct2d(images: np.ndarray) -> np.ndarray:
    """Orthonormal type-II DCT along height then width, per channel.

    ``images`` is one (H, W, C) image or an (N, H, W, C) stack, validated;
    each image is transformed on its own, with the same arithmetic either way.
    """
    # The arguments of scipy.fftpack.dct(x, type=2, norm="ortho", axis=a): the type,
    # the axis, inorm 1 (divide by sqrt(2N)), a new output, 1 thread, ortho by inorm.
    # One call over both axes would round differently.
    out = _r2r(ensure_image_or_stack(images), 2, (-3,), 1, None, 1, None)
    return _r2r(out, 2, (-2,), 1, None, 1, None)


def idct2d(grid: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`dct2d` up to floating-point roundoff."""
    # scipy.fftpack.idct(x, type=2, norm="ortho", axis=a) is the type-III kernel call.
    out = _r2r(ensure_image_or_stack(grid), 3, (-2,), 1, None, 1, None)
    return _r2r(out, 3, (-3,), 1, None, 1, None)


def radial_frequencies(height: int, width: int) -> np.ndarray:
    """Normalized radial frequency sqrt((w/W)^2 + (h/H)^2) of each DCT coefficient."""
    fh = np.arange(height) / height
    fw = np.arange(width) / width
    return np.sqrt(fh[:, None] ** 2 + fw[None, :] ** 2)
