"""Soft label vectors: one-hot, tempered, and smoothed forms.

Tempering scales the true-class entry down by (1 - gamma) and leaves the
rest at zero; smoothing moves the removed mass onto the uniform
distribution instead.  ``dirichlet_log_density`` scores a prediction
vector under the Dirichlet distribution with concentrations 1 + y, which
is the density whose mode sits at the smoothed label itself: it is the
reason smoothing, unlike tempering, rewards non-peaky predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lgamma

import numpy as np


class LabelKind(Enum):
    ONE_HOT = "one_hot"
    TEMPERED = "tempered"
    SMOOTHED = "smoothed"


@dataclass(frozen=True)
class SoftLabel:
    """A length-C vector of class weights with its construction kind."""

    probs: np.ndarray
    kind: LabelKind

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.shape[0] < 2:
            raise ValueError(f"label must be a vector of at least 2 classes, got {probs.shape}")
        if np.any(probs < 0) or np.any(probs > 1) or not np.all(np.isfinite(probs)):
            raise ValueError("label entries must lie in [0, 1]")
        if self.kind is LabelKind.ONE_HOT:
            if np.count_nonzero(probs) != 1 or probs.max() != 1.0:
                raise ValueError("one-hot label must have a single entry equal to 1")
        elif self.kind is LabelKind.SMOOTHED:
            if abs(probs.sum() - 1.0) > 1e-12:
                raise ValueError("smoothed label entries must sum to 1")
        elif self.kind is LabelKind.TEMPERED:
            if np.count_nonzero(probs) > 1:
                raise ValueError("tempered label must have at most one nonzero entry")
        object.__setattr__(self, "probs", probs)

    @property
    def num_classes(self) -> int:
        return self.probs.shape[0]


def one_hot(class_index: int, num_classes: int) -> SoftLabel:
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if not 0 <= class_index < num_classes:
        raise ValueError(f"class index {class_index} out of range for C={num_classes}")
    probs = np.zeros(num_classes)
    probs[class_index] = 1.0
    return SoftLabel(probs, LabelKind.ONE_HOT)


def soft_labels(
    classes: np.ndarray, gammas: np.ndarray, num_classes: int, kind: LabelKind
) -> np.ndarray:
    """One label per (class, gamma) pair: tempered, or smoothed if ``kind`` is SMOOTHED."""
    y = np.zeros((classes.shape[0], num_classes))
    y[np.arange(classes.shape[0]), classes] = 1.0
    y *= (1.0 - gammas)[:, None]
    if kind is LabelKind.SMOOTHED:
        y += (gammas / num_classes)[:, None]
    return y


def _degrade(y: SoftLabel, gamma: float, kind: LabelKind) -> SoftLabel:
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if y.kind is not LabelKind.ONE_HOT:
        raise ValueError(f"{kind.value} labels are built from a one-hot label")
    probs = soft_labels(np.argmax(y.probs)[None], np.array([gamma]), y.num_classes, kind)
    return SoftLabel(probs[0], kind)


def temper_label(y: SoftLabel, gamma: float) -> SoftLabel:
    """Scale the one-hot entry by (1 - gamma); zeros stay zero."""
    return _degrade(y, gamma, LabelKind.TEMPERED)


def smooth_label(y: SoftLabel, gamma: float) -> SoftLabel:
    """Mix the one-hot label with the uniform distribution at weight gamma."""
    return _degrade(y, gamma, LabelKind.SMOOTHED)


def dirichlet_log_density(f: np.ndarray, y: SoftLabel) -> float:
    """log Dir(f | 1 + y) = sum_c y_c log f_c - log B(1 + y), in nats.

    B is the multivariate Beta function of the full concentration vector
    1 + y, evaluated through log-Gamma.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape != y.probs.shape:
        raise ValueError(f"prediction shape {f.shape} does not match label {y.probs.shape}")
    if np.any(f <= 0):
        raise ValueError("prediction entries must be strictly positive")
    if abs(f.sum() - 1.0) > 1e-9:
        raise ValueError(f"prediction entries must sum to 1, got {f.sum()!r}")
    conc = 1.0 + y.probs
    log_b = sum(lgamma(a) for a in conc) - lgamma(float(conc.sum()))
    return float(np.dot(y.probs, np.log(f)) - log_b)
