"""Log-space likelihood machinery for soft labels.

Provides the normalizing constant Z that turns the smoothed-label score
into a proper density over smoothing levels, its gradient, and three
Monte-Carlo estimators of a per-example log marginal likelihood from K
per-augmentation samples:

* ``naive``      log of the sample mean of the likelihoods,
* ``jensen``     mean of the log-likelihoods (a lower bound; equivalently
                 the geometric-mean aggregation of the K augmentations),
* ``corrected``  the naive estimate plus the second-order bias correction
                 var[I_K] / (2 I_K^2).

With f the softmax probabilities and K_geo their geometric mean, the
normalizer is Z = sum_j (K_geo - f_j) / (log K_geo - log f_j), each term
falling back to its limit value f_j as f_j -> K_geo.  Everything here is
computed in log space; the naive form of Z underflows long before the
log-space one does.  The soft-label cross-entropy itself, which is the
tempered log-likelihood for a tempered label, has one source:
``trainer.loss_and_grad``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

# Below this gap the normalizer term is numerically at its limit value.
_DEGENERATE_GAP = 1e-12
# Wider guard for the gradient series, where first derivatives matter.
_SERIES_GAP = 1e-6


def _as_logp(logp: np.ndarray) -> np.ndarray:
    lp = np.asarray(logp, dtype=np.float64)
    if lp.ndim < 1 or lp.shape[-1] < 2:
        raise ValueError(f"need a vector of at least 2 log-probabilities, got {lp.shape}")
    return lp


def _log_exprel(x: np.ndarray) -> np.ndarray:
    """log((e^x - 1) / x), elementwise, with the limit value 0 near x = 0."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    big = x > 700.0
    pos = (x >= _DEGENERATE_GAP) & ~big
    neg = x <= -_DEGENERATE_GAP
    if np.any(big):
        xb = x[big]
        out[big] = xb - np.log(xb)
    if np.any(pos):
        xp = x[pos]
        out[pos] = np.log(np.expm1(xp)) - np.log(xp)
    if np.any(neg):
        xn = x[neg]
        out[neg] = np.log(-np.expm1(xn)) - np.log(-xn)
    return out


def log_normalizer_Z(logp: np.ndarray) -> float | np.ndarray:
    """log Z for one (or a batch of) log-probability vectors (last axis)."""
    lp = _as_logp(logp)
    if not np.all(np.isfinite(lp)):
        raise ValueError("log-probabilities must be finite")
    log_k = lp.mean(axis=-1, keepdims=True)
    # Each term is f_j * exprel(log K - log f_j) = (K - f_j)/(log K - log f_j).
    vals = logsumexp(lp + _log_exprel(log_k - lp), axis=-1)
    if np.ndim(vals) == 0:
        return float(vals)
    return vals


def log_normalizer_grad(logp: np.ndarray) -> np.ndarray:
    """Gradient of log Z with respect to the *logits* behind ``logp``.

    Uses Z = sum_j f_j * phi(L_j) with phi(L) = (e^L - 1)/L and
    L_j = log K - log f_j; the products f_j*phi and f_j*phi' reduce to
    (K - f_j)/L_j and (K(L_j - 1) + f_j)/L_j^2, which never overflow.
    """
    lp = _as_logp(logp)
    f = np.exp(lp)
    log_k = lp.mean(axis=-1, keepdims=True)
    k_geo = np.exp(log_k)
    gap = log_k - lp
    small = np.abs(gap) < _SERIES_GAP
    safe = np.where(small, 1.0, gap)
    a = np.where(small, f * (1.0 + gap / 2 + gap**2 / 6), (k_geo - f) / safe)
    b = np.where(
        small,
        f * (0.5 + gap / 3 + gap**2 / 8),
        (k_geo * (gap - 1.0) + f) / (safe * safe),
    )
    z = a.sum(axis=-1, keepdims=True)
    g = (a - b + b.mean(axis=-1, keepdims=True)) / z
    return g - f * g.sum(axis=-1, keepdims=True)


def mc_log_marginal(loglik: np.ndarray, method: str) -> float:
    """Estimate a log marginal likelihood from per-augmentation samples."""
    ll = np.asarray(loglik, dtype=np.float64)
    if ll.ndim != 1 or ll.shape[0] < 1:
        raise ValueError(f"need a non-empty 1-D sample vector, got shape {ll.shape}")
    if not np.all(np.isfinite(ll)):
        raise ValueError("log-likelihood samples must be finite")
    k = ll.shape[0]
    if method == "jensen":
        return float(ll.mean())
    log_ik = float(logsumexp(ll) - math.log(k))
    if method == "naive":
        return log_ik
    if method == "corrected":
        if k < 2:
            raise ValueError("the corrected estimator needs at least 2 samples")
        ratios = np.exp(ll - log_ik)  # p_k / I_K, safe against underflow
        rel_var = float(np.sum((ratios - 1.0) ** 2)) / (k * (k - 1))
        return log_ik + 0.5 * rel_var
    raise ValueError(f"unknown method {method!r}; expected naive, jensen, or corrected")
