import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from datamoll.likelihood import dirichlet_log_density, soft_labels
from tests.helpers import label


class TestOneHot:
    def test_basic(self):
        assert label(0, 2).tolist() == [1.0, 0.0]
        assert label(0, 2, smoothed=False).tolist() == [1.0, 0.0]

    def test_index_three_of_ten(self):
        expected = np.zeros(10)
        expected[3] = 1.0
        assert np.array_equal(label(3, 10), expected)

    @settings(max_examples=50, deadline=None)
    @given(c=st.integers(2, 100), data=st.data())
    def test_sums_to_one(self, c, data):
        idx = data.draw(st.integers(0, c - 1))
        assert label(idx, c).sum() == 1.0


class TestBatch:
    def test_rows_match_single_labels(self):
        classes = np.array([2, 0, 1, 2])
        gammas = np.array([0.0, 0.3, 1.0, 0.55])
        for smoothed in (True, False):
            y = soft_labels(classes, gammas, 3, smoothed)
            assert y.shape == (4, 3)
            for row, cls, gamma in zip(y, classes, gammas):
                assert np.array_equal(row, label(cls, 3, gamma, smoothed))


class TestTemper:
    def test_gamma_zero_unchanged(self):
        assert label(1, 3, 0.0, smoothed=False).tolist() == [0.0, 1.0, 0.0]

    def test_direct_value(self):
        assert label(0, 4, 0.3, smoothed=False) == approx([0.7, 0.0, 0.0, 0.0])

    def test_gamma_one_all_zero(self):
        assert np.all(label(2, 5, 1.0, smoothed=False) == 0.0)


class TestSmooth:
    def test_direct_value(self):
        y = label(3, 10, 0.2)
        assert y[3] == approx(0.82)
        off = np.delete(y, 3)
        assert off == approx(np.full(9, 0.02))

    def test_gamma_zero_is_one_hot_vector(self):
        assert label(1, 4, 0.0) == approx([0.0, 1.0, 0.0, 0.0])

    def test_gamma_one_is_uniform(self):
        assert label(1, 4, 1.0) == approx(np.full(4, 0.25))

    @settings(max_examples=100, deadline=None)
    @given(c=st.integers(2, 50), gamma=st.floats(0.0, 1.0), data=st.data())
    def test_sums_to_one_and_mode_preserved(self, c, gamma, data):
        idx = data.draw(st.integers(0, c - 1))
        y = label(idx, c, gamma)
        assert abs(y.sum() - 1.0) <= 1e-12
        if gamma < 1.0:
            assert int(np.argmax(y)) == idx


class TestDirichletDensity:
    def test_one_hot_at_center_c2(self):
        # log density of Dir(2, 1) at (1/2, 1/2): ln(1/2) - ln B(2,1) = 0
        val = dirichlet_log_density(np.array([0.5, 0.5]), label(0, 2))
        assert val == approx(0.0, abs=1e-12)

    def test_half_label_at_center_c2(self):
        val = dirichlet_log_density(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert val == approx(math.log(4.0 / math.pi), abs=1e-12)

    def test_one_hot_density_increases_toward_corner(self):
        y = label(0, 2)
        vals = [
            dirichlet_log_density(np.array([p, 1.0 - p]), y)
            for p in (0.5, 0.9, 0.99, 0.999)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_grid_argmax_at_corner_for_one_hot(self):
        y = label(0, 3)
        best, best_f = -np.inf, None
        n = 60
        for i in range(1, n):
            for j in range(1, n - i):
                f = np.array([i / n, j / n, (n - i - j) / n])
                val = dirichlet_log_density(f, y)
                if val > best:
                    best, best_f = val, f
        assert best_f[0] == max(i / n for i in range(1, n - 1))

    def test_grid_argmax_at_smoothed_label(self):
        gamma = 0.4
        y = label(0, 3, gamma)
        best, best_f = -np.inf, None
        n = 80
        for i in range(1, n):
            for j in range(1, n - i):
                f = np.array([i / n, j / n, (n - i - j) / n])
                val = dirichlet_log_density(f, y)
                if val > best:
                    best, best_f = val, f
        assert np.abs(best_f - y).max() <= 1.0 / n + 1e-12

    def test_tempered_keeps_mode_at_corner(self):
        y = label(0, 2, 0.5, smoothed=False)
        vals = [
            dirichlet_log_density(np.array([p, 1.0 - p]), y)
            for p in (0.5, 0.9, 0.999)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_and_unnormalized(self):
        y = label(0, 2)
        with pytest.raises(ValueError):
            dirichlet_log_density(np.array([0.0, 1.0]), y)
        with pytest.raises(ValueError):
            dirichlet_log_density(np.array([0.6, 0.6]), y)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            dirichlet_log_density(np.array([0.5, 0.5]), label(0, 3))
        with pytest.raises(ValueError):
            dirichlet_log_density(np.full((1, 2), 0.5), np.array([[1.0, 0.0]]))
