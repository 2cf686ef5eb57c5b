"""Corruption transforms, the compression information curve, and spectral
summaries of corruptions.

The information curve measures how much losslessly compressible content a
blur level leaves in a dataset: blur every image at temperature t,
de-standardize, quantize to 8 bits, PNG-encode, and take the mean byte-size
ratio against the t = 0 encoding.  Images are blurred and quantized a chunk
at a time and encoded one by one; the sizes are those of blurring each
image on its own.  Spectral deltas summarize a corruption by
the mean absolute change it causes per DCT coefficient, optionally reduced
to radial-frequency annuli.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DataError
from .mollifier import blur_image, heat_blur
from .png import png_size
from .schedules import ScheduleConfig, blur_sigma, dissipation_time
from .streams import stream
from .tensors import ChannelStats, dct2d, ensure_stack, radial_frequencies

CORRUPTION_KINDS = ("gauss_noise", "gauss_blur", "contrast", "pixelate")

_NOISE_SIGMAS = (0.1, 0.2, 0.4, 0.6, 0.8)
_BLUR_SIGMAS = (0.5, 1.0, 2.0, 4.0, 8.0)
_CONTRAST_FACTORS = (0.8, 0.6, 0.4, 0.3, 0.2)
_PIXELATE_BLOCKS = (2, 3, 4, 5, 6)

# Images blurred, quantized and encoded together by info_curve: enough to
# share the transforms' per-call cost, few enough to keep the stack small.
_INFO_CHUNK = 32


def _severity_index(severity: int) -> int:
    is_int = isinstance(severity, (int, np.integer)) and not isinstance(severity, bool)
    if not is_int or not 1 <= int(severity) <= 5:
        raise ValueError(f"severity must be an integer in 1..5, got {severity!r}")
    return int(severity) - 1


def _axis_blocks(n: int, block: int):
    """(starts, length) of the full blocks along an axis, then of the cut-off one."""
    full = n - n % block
    return (np.arange(0, full, block), block), (np.arange(full, n, block), n % block)


@lru_cache(maxsize=64)
def _pixel_blocks(h: int, w: int, block: int) -> tuple[np.ndarray, ...]:
    """Flat pixel indices of an (h, w) image's blocks, grouped by block shape.

    Each group is a read-only ``(blocks, pixels)`` array, one row per block
    and its pixels row-major within it.  Gathering a block's pixels in this
    order makes its mean the same bits as the mean of its slice of a
    C-contiguous image.
    """
    groups = []
    for rows, bh in _axis_blocks(h, block):
        for cols, bw in _axis_blocks(w, block):
            if rows.size and cols.size:
                corners = np.add.outer(rows * w, cols).reshape(-1, 1)
                idx = corners + np.add.outer(np.arange(bh) * w, np.arange(bw)).reshape(1, -1)
                idx.setflags(write=False)
                groups.append(idx)
    return tuple(groups)


def _pixelate(img: np.ndarray, block: int) -> np.ndarray:
    """Replace every ``block`` x ``block`` tile (cut off at the edges) by its mean."""
    h, w, c = img.shape
    flat = img.reshape(h * w, c)
    out = np.empty_like(flat)
    # sum / count is np.mean's arithmetic, bit for bit, without its Python wrapper.
    for idx in _pixel_blocks(h, w, block):
        out[idx] = (flat[idx].sum(axis=1) / idx.shape[1])[:, None, :]
    return out.reshape(img.shape)


def corrupt(
    img: np.ndarray,
    kind: str,
    severity: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Apply one of the built-in test-time corruptions at severity 1..5.

    ``img`` is one finite float64 (H, W, C) image, as :func:`corruption_cell`
    passes it; it is not checked again here.  Corruptions act on
    standardized images; ``gauss_noise`` needs ``rng``.
    """
    idx = _severity_index(severity)
    if kind == "gauss_noise":
        if rng is None:
            raise ValueError("gauss_noise requires a random generator")
        return img + _NOISE_SIGMAS[idx] * rng.standard_normal(img.shape)
    if kind == "gauss_blur":
        sigma = min(_BLUR_SIGMAS[idx], float(img.shape[1]))
        return heat_blur(img, dissipation_time(sigma))
    if kind == "contrast":
        mean = img.sum(axis=(0, 1)) / (img.shape[0] * img.shape[1])
        return mean + _CONTRAST_FACTORS[idx] * (img - mean)
    if kind == "pixelate":
        return _pixelate(img, _PIXELATE_BLOCKS[idx])
    raise ValueError(f"unknown corruption kind {kind!r}; expected one of {CORRUPTION_KINDS}")


def corruption_cell(
    images: np.ndarray | Sequence[np.ndarray], kind: str, severity: int, seed: int
) -> np.ndarray:
    """An ``(N, H, W, C)`` stack of ``images`` under one corruption kind and severity.

    ``images`` is such a stack or a sequence of equal-shape (H, W, C) images.
    Randomness is keyed by (seed, kind index, severity), so any cell can be
    regenerated without the others.
    """
    if kind not in CORRUPTION_KINDS:
        raise ValueError(f"unknown corruption kind {kind!r}; expected one of {CORRUPTION_KINDS}")
    _severity_index(severity)
    stack = ensure_stack(images)
    rng = stream(seed, CORRUPTION_KINDS.index(kind), severity)
    out = np.empty_like(stack)
    for i, img in enumerate(stack):
        out[i] = corrupt(img, kind, severity, rng)
    return out


def corruption_grid(images: np.ndarray | Sequence[np.ndarray], seed: int):
    """Yield ``(tag, corrupted stack)`` over all kinds and severities 1..5."""
    for kind in CORRUPTION_KINDS:
        for severity in range(1, 6):
            yield f"{kind}-{severity}", corruption_cell(images, kind, severity, seed)


@dataclass(frozen=True)
class InfoCurvePoint:
    """Mean PNG byte-size ratio of blurred images at one temperature."""

    t: float
    sigma_b: float
    mean_ratio: float


def quantize_for_png(images: np.ndarray, stats: ChannelStats) -> np.ndarray:
    """De-standardize, clamp to [0, 1], and quantize to 8-bit pixels.

    ``images`` is one (H, W, C) image or an (N, H, W, C) stack of finite
    values; the result has its shape.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim not in (3, 4):
        raise DataError(f"expected an (H, W, C) image or (N, H, W, C) stack, got {images.shape}")
    if images.shape[-1] != stats.channels:
        raise DataError(
            f"images have {images.shape[-1]} channels but stats describe {stats.channels}"
        )
    raw = np.clip(images * stats.std + stats.mean, 0.0, 1.0)
    return np.round(raw * 255.0).astype(np.uint8)


def info_curve(
    images: np.ndarray | Sequence[np.ndarray],
    stats: ChannelStats,
    cfg: ScheduleConfig,
    t_grid: Sequence[float],
) -> list[InfoCurvePoint]:
    """PNG size ratios over a temperature grid (which must contain t = 0).

    ``images`` is an (N, H, W, C) stack or a sequence of equal-shape images
    with 1 or 3 channels.  The baseline size of each image is its own
    encoding at t = 0; since the schedule blurs at sigma_min even there, the
    curve starts at exactly 1.
    """
    if len(images) == 0:
        raise DataError("info_curve needs a non-empty dataset")
    stack = ensure_stack(images)
    if stack.shape[3] not in (1, 3):
        raise DataError("PNG encoding supports 1- or 3-channel images only")
    grid = [float(t) for t in t_grid]
    if 0.0 not in grid:
        raise DataError("the temperature grid must contain t = 0")
    sizes = np.empty((len(grid), len(stack)))
    for start in range(0, len(stack), _INFO_CHUNK):
        chunk = stack[start : start + _INFO_CHUNK]
        for row, t in enumerate(grid):
            pixels = quantize_for_png(blur_image(chunk, t, cfg), stats)
            sizes[row, start : start + len(chunk)] = [png_size(img) for img in pixels]
    base = sizes[grid.index(0.0)]
    return [
        InfoCurvePoint(t=t, sigma_b=blur_sigma(t, cfg), mean_ratio=float((row / base).mean()))
        for t, row in zip(grid, sizes)
    ]


def spectral_delta(clean: Sequence[np.ndarray], corrupted: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise mean |DCT(corrupted) - DCT(clean)| over images and channels.

    Returns the (H, W) grid of the mean absolute change per DCT coefficient;
    the per-image grids are added in image order.
    """
    clean, corrupted = ensure_stack(clean), ensure_stack(corrupted)
    if len(clean) == 0 or clean.shape != corrupted.shape:
        raise DataError(f"need equal non-empty stacks, got {clean.shape} and {corrupted.shape}")
    delta = np.abs(dct2d(corrupted) - dct2d(clean)).mean(axis=3)
    return np.cumsum(delta, axis=0)[-1] / len(clean)


def annulus_means(grid: np.ndarray, num_bands: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Mean grid value per radial-frequency band, DC excluded.

    Returns (band centers, band means); bands are equal-width in normalized
    radial frequency up to the largest frequency present.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise DataError(f"expected a 2-D grid, got shape {grid.shape}")
    if grid.size < 2:
        raise DataError(f"a {grid.shape} DCT grid has no coefficient besides DC")
    radius = radial_frequencies(*grid.shape)
    mask = ~((np.arange(grid.shape[0])[:, None] == 0) & (np.arange(grid.shape[1])[None, :] == 0))
    r = radius[mask]
    v = grid[mask]
    edges = np.linspace(0.0, float(r.max()), num_bands + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    means = np.full(num_bands, np.nan)
    band = np.minimum(np.searchsorted(edges[1:], r, side="left"), num_bands - 1)
    for b in range(num_bands):
        members = band == b
        if members.any():
            means[b] = v[members].mean()
    return centers, means
