"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (double sums, per-record loops,
plain quadrature) and kept separate from the library code paths it
checks.  ``exp_decay_fit`` and ``pearson`` are the statistics the
acceptance criteria judge the library's outputs by.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft
import scipy.fftpack

from datamoll import synth
from datamoll.analysis import quantize_for_png
from datamoll.likelihood import soft_labels
from datamoll.mollifier import blur_image, mollify_batch
from datamoll.png import png_size
from datamoll.streams import derive_seed, stream
from datamoll.trainer import _TAG_MOLLIFY, _TAG_SHUFFLE, cosine_lr, init_params, loss_and_grad
from datamoll.tensors import idct2d


def naive_dct2(channel: np.ndarray) -> np.ndarray:
    """Orthonormal type-II DCT of one channel by the O(N^2) double sum."""
    h, w = channel.shape
    out = np.zeros((h, w))
    for k1 in range(h):
        s1 = math.sqrt(1.0 / h) if k1 == 0 else math.sqrt(2.0 / h)
        for k2 in range(w):
            s2 = math.sqrt(1.0 / w) if k2 == 0 else math.sqrt(2.0 / w)
            total = 0.0
            for n1 in range(h):
                for n2 in range(w):
                    total += (
                        channel[n1, n2]
                        * math.cos(math.pi * (2 * n1 + 1) * k1 / (2 * h))
                        * math.cos(math.pi * (2 * n2 + 1) * k2 / (2 * w))
                    )
            out[k1, k2] = s1 * s2 * total
    return out


def naive_pixelate(img: np.ndarray, block: int) -> np.ndarray:
    """Per-block loop: each block x block tile, cut off at the edges, by its mean."""
    out = np.empty_like(img)
    h, w = img.shape[0], img.shape[1]
    for i0 in range(0, h, block):
        i1 = min(i0 + block, h)
        for j0 in range(0, w, block):
            j1 = min(j0 + block, w)
            out[i0:i1, j0:j1] = img[i0:i1, j0:j1].mean(axis=(0, 1))
    return out


def fft_dct2d(img: np.ndarray) -> np.ndarray:
    """Orthonormal type-II DCT along height then width through ``scipy.fft``."""
    out = scipy.fft.dct(img, type=2, norm="ortho", axis=0)
    return scipy.fft.dct(out, type=2, norm="ortho", axis=1)


def fft_idct2d(grid: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fft_dct2d`, width then height, through ``scipy.fft``."""
    out = scipy.fft.idct(grid, type=2, norm="ortho", axis=1)
    return scipy.fft.idct(out, type=2, norm="ortho", axis=0)


def two_call_dct2d(img: np.ndarray) -> np.ndarray:
    """The 2-D DCT of one (H, W, C) image as two ``scipy.fftpack`` calls, height then width."""
    out = scipy.fftpack.dct(img, type=2, norm="ortho", axis=0)
    return scipy.fftpack.dct(out, type=2, norm="ortho", axis=1)


def two_call_idct2d(grid: np.ndarray) -> np.ndarray:
    """Inverse of :func:`two_call_dct2d`, width then height."""
    out = scipy.fftpack.idct(grid, type=2, norm="ortho", axis=1)
    return scipy.fftpack.idct(out, type=2, norm="ortho", axis=0)


def loop_spectral_delta(clean: np.ndarray, corrupted: np.ndarray) -> np.ndarray:
    """``analysis.spectral_delta`` as a loop over image pairs, summed in image order."""
    acc = np.zeros(clean.shape[1:3])
    for a, b in zip(clean, corrupted):
        acc += np.abs(two_call_dct2d(b) - two_call_dct2d(a)).mean(axis=2)
    return acc / len(clean)


def mean_pixelate(img: np.ndarray, block: int) -> np.ndarray:
    """Block means by ``np.mean`` over each block's pixels, gathered row-major
    and reduced together with the other blocks of the same shape."""
    h, w, c = img.shape
    flat = img.reshape(h * w, c)
    out = np.empty_like(flat)
    groups: dict[tuple[int, int], list[list[int]]] = {}
    for i0 in range(0, h, block):
        for j0 in range(0, w, block):
            bh, bw = min(block, h - i0), min(block, w - j0)
            pixels = [(i0 + i) * w + j0 + j for i in range(bh) for j in range(bw)]
            groups.setdefault((bh, bw), []).append(pixels)
    for blocks in groups.values():
        idx = np.array(blocks)
        out[idx] = flat[idx].mean(axis=1)[:, None, :]
    return out.reshape(img.shape)


def mean_contrast(img: np.ndarray, factor: float) -> np.ndarray:
    """Scale each channel's deviations from its ``np.mean`` by ``factor``."""
    mean = img.mean(axis=(0, 1))
    return mean + factor * (img - mean)


def naive_png_scanlines(pixels: np.ndarray) -> bytes:
    """PNG scanlines of (H, W[, C]) uint8 pixels, each row's filter chosen byte by byte.

    Every row is filtered with each of the five filters by the spec's per-byte
    definitions; the one whose bytes, read as signed, have the least absolute
    sum is kept, the lowest filter id on a tie.
    """
    pixels = np.asarray(pixels)
    bpp = pixels.shape[2] if pixels.ndim == 3 else 1
    prior = [0] * (pixels.shape[1] * bpp)
    out = bytearray()
    for y in range(pixels.shape[0]):
        line = [int(v) for v in pixels[y].reshape(-1)]
        best = None
        for filter_id in range(5):
            filtered = []
            for x in range(len(line)):
                a = line[x - bpp] if x >= bpp else 0
                b = prior[x]
                c = prior[x - bpp] if x >= bpp else 0
                if filter_id == 0:
                    pred = 0
                elif filter_id == 1:
                    pred = a
                elif filter_id == 2:
                    pred = b
                elif filter_id == 3:
                    pred = (a + b) // 2
                else:
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                filtered.append((line[x] - pred) % 256)
            cost = sum(v if v < 128 else 256 - v for v in filtered)
            if best is None or cost < best[0]:
                best = (cost, filter_id, filtered)
        out.append(best[1])
        out.extend(best[2])
        prior = line
    return bytes(out)


def info_curve_reference(images, stats, cfg, t_grid) -> list[float]:
    """The information curve by its definition: per image, ``blur_image``,
    ``quantize_for_png`` and ``png_size``; per temperature, the mean of the
    size ratios against t = 0, taken in image order."""
    sizes = {t: [png_size(quantize_for_png(blur_image(img, t, cfg), stats)) for img in images]
             for t in t_grid}
    base = np.array(sizes[0.0])
    return [float(np.mean(np.array(sizes[t]) / base)) for t in t_grid]


KERNEL_SHAPES = ((16, 16, 1), (32, 32, 1), (7, 5, 3), (13, 7, 2), (1, 1, 1))
KERNEL_SCALES = (1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300)


def kernel_inputs():
    """(label, image) pairs on which a kernel must match its oracle bit for bit.

    Every shape in ``KERNEL_SHAPES`` at every pixel scale in ``KERNEL_SCALES``,
    each as a C-ordered array, a Fortran-ordered copy and a strided view.
    """
    rng = np.random.default_rng(0)
    for h, w, c in KERNEL_SHAPES:
        for scale in KERNEL_SCALES:
            img = (rng.standard_normal((h, w, c)) + 0.5) * scale
            wide = (rng.standard_normal((2 * h, 3 * w, c + 1)) + 0.5) * scale
            yield f"{h}x{w}x{c}@{scale:g}", img
            yield f"{h}x{w}x{c}@{scale:g}/F", np.asfortranarray(img)
            yield f"{h}x{w}x{c}@{scale:g}/strided", wide[::2, 1::3, :c]


def loop_fractal_textures(count: int, height: int = 32, width: int = 32, seed: int = 0) -> np.ndarray:
    """``synth.fractal_textures`` as a loop over images, one 2-D inverse DCT each."""
    rng = stream(seed)
    fh = np.arange(height) / height
    fw = np.arange(width) / width
    radius = np.sqrt(fh[:, None] ** 2 + fw[None, :] ** 2)
    floor = 1.0 / max(height, width)
    amplitude = (radius + floor) ** (-synth._FRACTAL_EXPONENT)
    amplitude[0, 0] = 0.0
    images = np.empty((count, height, width, 1))
    for i in range(count):
        coefs = rng.standard_normal((height, width)) * amplitude
        img = idct2d(coefs[:, :, None])[:, :, 0]
        spread = img.std()
        if spread == 0:
            spread = 1.0
        images[i, :, :, 0] = np.clip(0.5 + 0.15 * (img - img.mean()) / spread, 0.0, 1.0)
    return images


def loop_grating_dataset(
    count: int, height: int = 16, width: int = 16, num_classes: int = 4, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """``synth.grating_dataset`` as a loop over images, with scalar draws and one wave at a time."""
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
        rng.random()  # a brightness jitter of width 0
        pixel = 0.5 + synth._PIXEL_NOISE * rng.standard_normal((height, width))
        for amp, cycles in synth._TEXTURE_COMPONENTS:
            pixel = pixel + amp * rng.uniform(0.8, 1.2) * wave(theta, cycles)
        images[i, :, :, 0] = np.clip(pixel, 0.0, 1.0)
    return images, labels.astype(np.int64)


def closed_form_heat_multipliers(height: int, width: int, tau: float) -> np.ndarray:
    """exp(-tau * pi^2 (w^2/W^2 + h^2/H^2)), built from scratch on every call."""
    fh = (np.arange(height) / height) ** 2
    fw = (np.arange(width) / width) ** 2
    return np.exp(-tau * ((math.pi**2) * (fh[:, None] + fw[None, :])))


def two_pass_stats(images: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force per-channel mean and population std over all pixels."""
    stacked = np.concatenate([img.reshape(-1, img.shape[2]) for img in images], axis=0)
    mean = stacked.mean(axis=0)
    std = np.sqrt(((stacked - mean) ** 2).mean(axis=0))
    return mean, std


def normalizer_quadrature(f: np.ndarray, points: int = 10_000) -> float:
    """Trapezoid quadrature of Z = sum_j integral_0^1 f_j (K/f_j)^a da."""
    f = np.asarray(f, dtype=np.float64)
    k_geo = float(np.exp(np.mean(np.log(f))))
    a = np.linspace(0.0, 1.0, points)
    total = 0.0
    for fj in f:
        total += float(np.trapezoid(fj * (k_geo / fj) ** a, a))
    return total


def brute_force_ece(records, num_bins: int) -> float:
    """Per-bin loop over records; bin b covers ((b-1)/B, b/B], 0 -> bin 1."""
    n = len(records)
    # Each record's confidence and hit, computed once rather than once per bin.
    scored = [(float(np.max(r.probs)), int(np.argmax(r.probs)) == r.true_class) for r in records]
    total = 0.0
    for b in range(1, num_bins + 1):
        lo = (b - 1) / num_bins
        hi = b / num_bins
        members = []
        for conf, hit in scored:
            if (lo < conf <= hi) or (b == 1 and conf == 0.0):
                members.append((conf, hit))
        if not members:
            continue
        acc = sum(1.0 for _, hit in members if hit) / len(members)
        conf_mean = sum(conf for conf, _ in members) / len(members)
        total += (len(members) / n) * abs(acc - conf_mean)
    return total


def _tanh_sinh_nodes(half_steps: int = 40, cutoff: float = 3.2):
    """Nodes/weights of tanh-sinh quadrature for integrals over (0, 1)."""
    step = cutoff / half_steps
    ts = np.arange(-half_steps, half_steps + 1) * step
    u = 0.5 * math.pi * np.sinh(ts)
    x = 0.5 * (1.0 + np.tanh(u))
    w = step * 0.25 * math.pi * np.cosh(ts) / np.cosh(u) ** 2
    keep = (x > 0.0) & (x < 1.0) & (w > 1e-300)
    return x[keep], w[keep]


def integrate_unit_interval(fn, half_steps: int = 40) -> float:
    """Tanh-sinh quadrature of fn over (0, 1); handles endpoint power laws."""
    x, w = _tanh_sinh_nodes(half_steps)
    return float(sum(wi * fn(xi) for xi, wi in zip(x, w)))


def integrate_simplex_2d(fn, half_steps: int = 40) -> float:
    """Iterated tanh-sinh quadrature of fn(f1, f2, f3) over the 2-simplex."""
    x, w = _tanh_sinh_nodes(half_steps)

    def inner(f1: float) -> float:
        rest = 1.0 - f1
        total = 0.0
        for xi, wi in zip(x, w):
            f2 = rest * xi
            f3 = rest * (1.0 - xi)
            total += wi * fn(f1, f2, f3)
        return rest * total

    return float(sum(wi * inner(xi) for xi, wi in zip(x, w)))


def pixel_space_train(dataset, cfg):
    """Mollified training in pixel space, batch by batch: each epoch's shuffle,
    each batch's ``mollify_batch`` records per sample, their soft labels, the
    ``loss_and_grad`` step and plain SGD, with the trainer's stream tags."""
    n = dataset.count
    params = init_params(dataset.images[0].size, cfg.hidden_units, dataset.num_classes, cfg.seed)
    smoothed = cfg.loss != "tempered"
    for epoch in range(cfg.epochs):
        order = stream(cfg.seed, _TAG_SHUFFLE, epoch).permutation(n)
        lr = cosine_lr(epoch, cfg)
        for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            images, gammas, labels = [], [], []
            for rep in range(cfg.samples_per_image):
                seed = derive_seed(cfg.seed, _TAG_MOLLIFY, epoch, batch_no, rep)
                records = mollify_batch(dataset.images[idx], cfg.schedule, seed)
                images.append(records.image.reshape(len(idx), -1))
                gammas.append(records.gamma)
                labels.append(dataset.labels[idx])
            y = soft_labels(np.concatenate(labels), np.concatenate(gammas),
                            dataset.num_classes, smoothed)
            _, grads = loss_and_grad(params, np.concatenate(images), y, cfg.loss == "normalized")
            for name, arr in params.blocks():
                arr -= lr * grads[name]
    return params


def finite_difference_grads(loss_fn, params, step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of ``loss_fn()`` over every parameter block."""
    grads = {}
    for name, arr in params.blocks():
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            up = loss_fn()
            arr[idx] = orig - step
            down = loss_fn()
            arr[idx] = orig
            g[idx] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def max_rel_gradient_error(analytic: dict, numeric: dict) -> float:
    worst = 0.0
    for name, a in analytic.items():
        b = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst


def exp_decay_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of log(y) = a + rate*x; returns (rate, R^2).

    All ``y`` must be positive; R^2 is computed on the log scale.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 3:
        raise ValueError("need matching vectors with at least 3 points")
    if np.any(y <= 0):
        raise ValueError("y values must be positive for a log-linear fit")
    logy = np.log(y)
    design = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(design, logy, rcond=None)
    resid = logy - design @ coef
    total = logy - logy.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(resid @ resid) / ss_tot
    return float(coef[1]), r2


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("need matching vectors with at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0:
        raise ValueError("correlation undefined for constant input")
    return float(xc @ yc) / denom
