"""Soft labels as plain (N, C) float arrays: tempered or smoothed.

Tempering scales the true-class entry down by (1 - gamma) and leaves the
rest at zero; smoothing moves the removed mass onto the uniform
distribution instead.  At gamma = 0 both are the one-hot label.
``dirichlet_log_density`` scores a prediction vector under the Dirichlet
distribution with concentrations 1 + y, which is the density whose mode
sits at the smoothed label itself: it is the reason smoothing, unlike
tempering, rewards non-peaky predictions.
"""

from __future__ import annotations

from math import lgamma

import numpy as np


def soft_labels(
    classes: np.ndarray, gammas: np.ndarray, num_classes: int, smoothed: bool = True
) -> np.ndarray:
    """One label row per (class, gamma) pair: smoothed, or tempered if not ``smoothed``."""
    y = np.zeros((classes.shape[0], num_classes))
    y[np.arange(classes.shape[0]), classes] = 1.0
    y *= (1.0 - gammas)[:, None]
    if smoothed:
        y += (gammas / num_classes)[:, None]
    return y


def dirichlet_log_density(f: np.ndarray, y: np.ndarray) -> float:
    """log Dir(f | 1 + y) = sum_c y_c log f_c - log B(1 + y), in nats.

    B is the multivariate Beta function of the full concentration vector
    1 + y, evaluated through log-Gamma.
    """
    f = np.asarray(f, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or f.shape != y.shape:
        raise ValueError(f"prediction shape {f.shape} does not match label vector {y.shape}")
    if np.any(f <= 0):
        raise ValueError("prediction entries must be strictly positive")
    if abs(f.sum() - 1.0) > 1e-9:
        raise ValueError(f"prediction entries must sum to 1, got {f.sum()!r}")
    conc = 1.0 + y
    log_b = sum(lgamma(a) for a in conc) - lgamma(float(conc.sum()))
    return float(np.dot(y, np.log(f)) - log_b)
