"""Small helpers shared by the test modules."""

import numpy as np

from datamoll.likelihood import soft_labels


def label(cls, num_classes, gamma=0.0, smoothed=True):
    """One soft label row; gamma 0 gives the one-hot label."""
    return soft_labels(np.array([cls]), np.array([gamma]), num_classes, smoothed)[0]
