import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from datamoll.likelihood import _log_exprel, log_normalizer_Z, log_normalizer_grad, mc_log_marginal
from datamoll.trainer import MlpParams, loss_and_grad
from tests.helpers import label
from tests.oracles import normalizer_quadrature


def logp_of(probs) -> np.ndarray:
    return np.log(np.asarray(probs, dtype=np.float64))


def soft_cross_entropy(logp, y):
    """-sum_c y_c logp_c from ``loss_and_grad`` on a batch of one.

    The net's logits are its output bias, set to ``logp``, whose log-softmax
    is ``logp`` again.
    """
    logp = np.asarray(logp, dtype=np.float64)
    params = MlpParams(np.zeros((1, 1)), np.zeros(1), np.zeros((logp.shape[0], 1)), logp.copy())
    loss, _ = loss_and_grad(params, np.zeros((1, 1)), np.asarray(y)[None])
    return loss


def tempered_log_likelihood(logp, class_index, gamma):
    """The log-likelihood of a tempered label, from ``loss_and_grad``."""
    return -soft_cross_entropy(logp, label(class_index, len(logp), gamma, smoothed=False))


class TestSoftCrossEntropy:
    def test_uniform_prediction(self):
        lp = logp_of(np.full(10, 0.1))
        y = label(4, 10, 0.37)
        assert soft_cross_entropy(lp, y) == approx(math.log(10.0))

    def test_perfect_one_hot(self):
        lp = np.array([0.0, -50.0, -50.0])
        lp = lp - math.log(np.exp(lp).sum())  # renormalize
        assert soft_cross_entropy(lp, label(0, 3)) == approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        lp = logp_of([0.7, 0.2, 0.1])
        y = np.array([0.8, 0.1, 0.1])
        expected = -(0.8 * math.log(0.7) + 0.1 * math.log(0.2) + 0.1 * math.log(0.1))
        assert soft_cross_entropy(lp, y) == approx(expected, abs=1e-12)
        assert expected == approx(0.67654, abs=1e-5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            soft_cross_entropy(logp_of([0.5, 0.5]), label(0, 3))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        a=st.floats(0.0, 1.0),
        gamma1=st.floats(0.0, 1.0),
        gamma2=st.floats(0.0, 1.0),
    )
    def test_linear_in_label(self, seed, a, gamma1, gamma2):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(5))
        p = np.maximum(p, 1e-9)
        lp = np.log(p / p.sum())
        y1 = label(1, 5, gamma1)
        y2 = label(3, 5, gamma2)
        mixed = a * y1 + (1.0 - a) * y2
        lhs = soft_cross_entropy(lp, mixed)
        rhs = a * soft_cross_entropy(lp, y1) + (1.0 - a) * soft_cross_entropy(lp, y2)
        assert lhs == approx(rhs, abs=1e-12)


class TestTemperedLogLikelihood:
    def test_gamma_zero_is_plain(self):
        lp = logp_of([0.25, 0.75])
        assert tempered_log_likelihood(lp, 1, 0.0) == approx(math.log(0.75))

    def test_gamma_one_is_zero(self):
        lp = logp_of([0.25, 0.75])
        assert tempered_log_likelihood(lp, 0, 1.0) == 0.0

    def test_direct_value(self):
        lp = logp_of([0.25, 0.75])
        assert tempered_log_likelihood(lp, 0, 0.5) == approx(0.5 * math.log(0.25))
        assert tempered_log_likelihood(lp, 0, 0.5) == approx(-0.693147, abs=1e-6)

    def test_matches_cross_entropy_of_tempered_label(self):
        lp = logp_of([0.2, 0.3, 0.5])
        for gamma in (0.0, 0.25, 0.8, 1.0):
            direct = (1.0 - gamma) * lp[2]
            via_ce = -soft_cross_entropy(lp, label(2, 3, gamma, smoothed=False))
            assert direct == approx(via_ce, abs=1e-15)

    def test_bad_index(self):
        with pytest.raises(IndexError):
            tempered_log_likelihood(logp_of([0.5, 0.5]), 2, 0.1)


class TestNormalizer:
    def test_uniform_gives_unit_z(self):
        for c in (2, 3, 7, 10):
            lp = logp_of(np.full(c, 1.0 / c))
            assert math.exp(log_normalizer_Z(lp)) == approx(1.0, abs=1e-12)

    def test_two_class_closed_form(self):
        lp = logp_of([0.9, 0.1])
        z = math.exp(log_normalizer_Z(lp))
        assert z == approx(0.8 / math.log(3.0), rel=1e-12)
        assert z == approx(normalizer_quadrature([0.9, 0.1]), rel=1e-6)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            c = int(rng.integers(2, 11))
            f = rng.dirichlet(np.ones(c))
            f = np.maximum(f, 1e-6)
            f = f / f.sum()
            z = math.exp(log_normalizer_Z(np.log(f)))
            assert z == approx(normalizer_quadrature(f), rel=1e-6)

    def test_extreme_probabilities_stay_finite(self):
        # one entry almost 1, the rest astronomically small
        lp = np.array([math.log1p(-1e-12), -900.0, -950.0])
        val = log_normalizer_Z(lp)
        assert math.isfinite(val)

    def test_log_exprel_is_continuous_across_its_large_argument_branch(self):
        # Above 700, expm1 would overflow; log((e^x - 1) / x) is then x - log(x).
        x = np.array([699.999999, 700.0, 700.000001])
        expected = [v - math.log(v) for v in x]
        assert _log_exprel(x).tolist() == approx(expected, rel=1e-15)

    def test_log_gap_past_700_stays_finite(self):
        # log K - log f_j is +-750 here, so one term takes the large-argument branch.
        val = log_normalizer_Z([0.0, -1500.0])
        assert math.isfinite(val)
        assert val == approx(-6.6200732, rel=1e-7)

    def test_rejects_infinite_logp(self):
        with pytest.raises(ValueError):
            log_normalizer_Z(np.array([0.0, -np.inf]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        logits = rng.standard_normal(5)

        def log_z_of(s):
            lp = s - math.log(np.exp(s).sum())
            return float(log_normalizer_Z(lp))

        lp = logits - math.log(np.exp(logits).sum())
        analytic = log_normalizer_grad(lp)
        h = 1e-6
        for i in range(5):
            up = logits.copy()
            up[i] += h
            down = logits.copy()
            down[i] -= h
            fd = (log_z_of(up) - log_z_of(down)) / (2.0 * h)
            assert analytic[i] == approx(fd, abs=1e-7)


class TestMcMarginal:
    def test_single_sample(self):
        ll = np.array([math.log(0.5)])
        assert mc_log_marginal(ll, "naive") == approx(math.log(0.5))
        assert mc_log_marginal(ll, "jensen") == approx(math.log(0.5))
        with pytest.raises(ValueError):
            mc_log_marginal(ll, "corrected")

    def test_constant_samples_agree(self):
        ll = np.full(6, -1.3)
        for method in ("naive", "jensen", "corrected"):
            assert mc_log_marginal(ll, method) == approx(-1.3, abs=1e-12)

    def test_hand_computed_pair(self):
        ll = np.log(np.array([0.2, 0.4]))
        assert mc_log_marginal(ll, "naive") == approx(math.log(0.3), abs=1e-12)
        assert mc_log_marginal(ll, "jensen") == approx(
            (math.log(0.2) + math.log(0.4)) / 2.0, abs=1e-12
        )
        assert mc_log_marginal(ll, "corrected") == approx(
            math.log(0.3) + 0.5 * 0.01 / 0.09, abs=1e-12
        )
        assert mc_log_marginal(ll, "corrected") == approx(-1.14841, abs=1e-5)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31), k=st.integers(2, 24))
    def test_ordering(self, seed, k):
        ll = np.random.default_rng(seed).normal(-1.0, 1.5, size=k)
        jensen = mc_log_marginal(ll, "jensen")
        naive = mc_log_marginal(ll, "naive")
        corrected = mc_log_marginal(ll, "corrected")
        assert jensen <= naive + 1e-12
        assert naive <= corrected + 1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            mc_log_marginal(np.array([0.0, 0.0]), "bogus")

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            mc_log_marginal(np.array([0.0, -np.inf]), "naive")
