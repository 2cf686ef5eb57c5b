"""Acceptance suite: one test per release criterion, each printing a
PASS line with its headline numbers when it succeeds.

Criterion 10 trains six models (2 arms x 3 seeds) at default settings and
is by far the slowest test here (several minutes); everything else runs
in seconds.
"""

import math
import time

import numpy as np
import pytest

from datamoll.analysis import (
    annulus_means,
    corrupt,
    info_curve,
    spectral_delta,
)
from datamoll.cli import run_study
from datamoll.likelihood import dirichlet_log_density, log_normalizer_Z, mc_log_marginal
from datamoll.metrics import ece, predictions
from datamoll.mol1 import save_mol1
from datamoll.mollifier import heat_blur
from datamoll.schedules import ScheduleConfig, alpha_sigma, blur_sigma, gamma_noise
from datamoll.streams import stream
from datamoll.study import aggregate
from datamoll.synth import fractal_textures, grating_dataset, standardized_dataset
from datamoll.tensors import compute_channel_stats, dct2d, idct2d
from datamoll.trainer import MlpParams, loss_and_grad
from tests.helpers import label as _label
from tests.oracles import (
    brute_force_ece,
    exp_decay_fit,
    finite_difference_grads,
    integrate_simplex_2d,
    integrate_unit_interval,
    max_rel_gradient_error,
    naive_dct2,
    normalizer_quadrature,
    pearson,
)


def _report(name: str, detail: str) -> None:
    print(f"[PASS] {name}: {detail}")


def test_criterion_01_schedule_exactness():
    started = time.perf_counter()
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 1000):
        alpha, sigma = alpha_sigma(float(t))
        worst = max(worst, abs(alpha * alpha + sigma * sigma - 1.0))
    assert worst <= 1e-12
    for k in (0.5, 1.0, 2.0, 4.0):
        assert gamma_noise(0.5, k) == 0.5**k
    cfg = ScheduleConfig.for_width(48)
    assert blur_sigma(0.0, cfg) == 0.3
    assert blur_sigma(1.0, cfg) == 48.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(
        "criterion 1 (schedule exactness)",
        f"max |a^2+s^2-1| = {worst:.2e}, endpoints exact, {elapsed:.2f}s",
    )


def test_criterion_02_dct_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_round, worst_parseval = 0.0, 0.0
    for _ in range(10):
        img = rng.standard_normal((8, 8, 3))
        grid = dct2d(img)
        worst_round = max(worst_round, float(np.abs(idct2d(grid) - img).max()))
        worst_parseval = max(
            worst_parseval,
            abs(float((grid**2).sum()) / float((img**2).sum()) - 1.0),
        )
    assert worst_round <= 1e-6
    assert worst_parseval <= 1e-6
    small = rng.standard_normal((4, 4, 1))
    delta = float(np.abs(dct2d(small)[:, :, 0] - naive_dct2(small[:, :, 0])).max())
    assert delta <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(
        "criterion 2 (DCT correctness)",
        f"roundtrip {worst_round:.2e}, Parseval {worst_parseval:.2e}, oracle {delta:.2e}",
    )


def test_criterion_03_heat_semigroup():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        img = rng.standard_normal((16, 16, 3))
        tau1, tau2 = rng.uniform(0.1, 8.0, 2)
        once = heat_blur(img, tau1 + tau2)
        twice = heat_blur(heat_blur(img, tau1), tau2)
        worst = max(worst, float(np.abs(once - twice).max()))
    assert worst <= 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report("criterion 3 (heat semigroup)", f"max composition gap {worst:.2e}")


def test_criterion_04_normalizer_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(100):
        c = int(rng.integers(2, 11))
        if i == 0:
            f = np.full(4, 0.25)  # the uniform Z = 1 case
        else:
            f = rng.dirichlet(np.ones(c))
            f = np.maximum(f, 1e-8)
            f = f / f.sum()
        z = math.exp(log_normalizer_Z(np.log(f)))
        reference = normalizer_quadrature(f, points=10_000)
        worst = max(worst, abs(z / reference - 1.0))
    assert worst <= 1e-6
    uniform_z = math.exp(log_normalizer_Z(np.log(np.full(5, 0.2))))
    assert uniform_z == pytest.approx(1.0, abs=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(
        "criterion 4 (normalizer oracle)",
        f"max rel gap vs quadrature {worst:.2e} over 100 cases, {elapsed:.1f}s",
    )


def test_criterion_05_estimator_ordering_and_bias():
    started = time.perf_counter()
    rng = stream(99)
    for _ in range(10_000):
        k = int(rng.integers(2, 16))
        ll = rng.normal(-1.0, 1.5, size=k)
        jensen = mc_log_marginal(ll, "jensen")
        naive = mc_log_marginal(ll, "naive")
        corrected = mc_log_marginal(ll, "corrected")
        assert jensen <= naive + 1e-12
        assert naive <= corrected + 1e-12
    # log-normal benchmark: exp(loglik) has known mean exp(mu + s^2/2)
    mu, s, k = 0.0, 0.5, 8
    true_log_integral = mu + s * s / 2.0
    draws = stream(2024).normal(mu, s, size=(10_000, k))
    naive_mean = float(np.mean([mc_log_marginal(row, "naive") for row in draws]))
    corrected_mean = float(np.mean([mc_log_marginal(row, "corrected") for row in draws]))
    bias_naive = naive_mean - true_log_integral
    bias_corrected = corrected_mean - true_log_integral
    assert abs(bias_corrected) < abs(bias_naive)
    # the plain estimator underestimates; the corrected one stays between
    # it and the truth
    assert bias_naive < 0.0
    assert naive_mean < corrected_mean <= true_log_integral + 1e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(
        "criterion 5 (estimator ordering and bias)",
        f"bias naive {bias_naive:+.4f} vs corrected {bias_corrected:+.4f}, {elapsed:.1f}s",
    )


def test_criterion_06_gradient_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    params = MlpParams(
        w1=rng.standard_normal((2, 2)) * 0.7,
        b1=rng.standard_normal(2) * 0.3,
        w2=rng.standard_normal((2, 2)) * 0.7,
        b2=rng.standard_normal(2) * 0.3,
    )
    x = rng.standard_normal((1, 2)) + 0.5
    cases = {
        "smoothed": (_label(0, 2, 0.3), False),
        "tempered": (_label(0, 2, 0.3, smoothed=False), False),
        "normalized": (_label(1, 2, 0.2), True),
    }
    worst = {}
    for name, (label, norm) in cases.items():
        y = label[None]
        _, analytic = loss_and_grad(params, x, y, include_normalizer=norm)
        numeric = finite_difference_grads(
            lambda: loss_and_grad(params, x, y, include_normalizer=norm)[0], params
        )
        worst[name] = max_rel_gradient_error(analytic, numeric)
        assert worst[name] <= 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(
        "criterion 6 (gradient oracle)",
        "max rel errors "
        + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()),
    )


def test_criterion_07_dirichlet_normalization_and_modes():
    started = time.perf_counter()
    gaps = []
    for label in (_label(0, 2), _label(0, 2, 0.5)):
        total = integrate_unit_interval(
            lambda p: math.exp(dirichlet_log_density(np.array([p, 1.0 - p]), label))
        )
        gaps.append(abs(total - 1.0))
    for label in (_label(1, 3), _label(1, 3, 0.3)):
        total = integrate_simplex_2d(
            lambda f1, f2, f3: math.exp(
                dirichlet_log_density(np.array([f1, f2, f3]), label)
            )
        )
        gaps.append(abs(total - 1.0))
    assert max(gaps) <= 1e-4
    # grid argmax sits at the smoothed label itself
    gamma = 0.4
    label = _label(0, 3, gamma)
    n = 80
    best, best_f = -np.inf, None
    for i in range(1, n):
        for j in range(1, n - i):
            f = np.array([i / n, j / n, (n - i - j) / n])
            val = dirichlet_log_density(f, label)
            if val > best:
                best, best_f = val, f
    assert np.abs(best_f - label).max() <= 1.0 / n + 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(
        "criterion 7 (Dirichlet normalization and modes)",
        f"max quadrature gap {max(gaps):.2e}, mode at smoothed label, {elapsed:.1f}s",
    )


def test_criterion_08_blur_information_curve():
    started = time.perf_counter()
    raw = fractal_textures(256, 32, 32, seed=11)
    stats = compute_channel_stats(list(raw))
    images = list((raw - stats.mean) / stats.std)
    cfg = ScheduleConfig.for_width(32)
    grid = [i / 10 for i in range(11)]
    points = info_curve(images, stats, cfg, grid)
    ratios = np.array([p.mean_ratio for p in points])
    ts = np.array([p.t for p in points])
    assert ratios[0] == pytest.approx(1.0, abs=1e-9)
    for a, b in zip(ratios, ratios[1:]):
        assert b <= a * 1.01  # nonincreasing up to 1% codec noise
    correlation = pearson(ratios, 1.0 - ts)
    assert abs(correlation) >= 0.95
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        "criterion 8 (blur reduces information linearly)",
        f"pearson vs (1-t) = {correlation:.4f}, curve monotone, {elapsed:.1f}s",
    )


def test_criterion_09_spectral_corruption_signatures():
    started = time.perf_counter()
    raw = fractal_textures(128, 32, 32, seed=5)
    stats = compute_channel_stats(list(raw))
    clean = list((raw - stats.mean) / stats.std)
    rng = stream(17)
    noisy = [corrupt(img, "gauss_noise", 3, rng) for img in clean]
    _, noise_means = annulus_means(spectral_delta(clean, noisy))
    noise_cov = float(noise_means.std() / noise_means.mean())
    assert noise_cov < 0.3
    blurred = [corrupt(img, "gauss_blur", 3) for img in clean]
    centers, blur_means = annulus_means(spectral_delta(clean, blurred))
    half = len(centers) // 2
    rate, r2 = exp_decay_fit(centers[half:], blur_means[half:])
    assert rate < 0.0
    assert r2 >= 0.8
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        "criterion 9 (spectral corruption signatures)",
        f"noise annulus CoV {noise_cov:.3f}, blur high-band fit R^2 {r2:.3f}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def robustness_results():
    return [run_study(seed) for seed in (0, 1, 2)]


def test_criterion_10_robustness_effect(robustness_results):
    summary = aggregate(robustness_results)
    reduction = summary["relative_error_reduction"]
    clean_change = (
        summary["mollified_clean_error"] - summary["baseline_clean_error"]
    )
    detail = (
        f"corrupted error {summary['baseline_corrupted_error']:.3f} -> "
        f"{summary['mollified_corrupted_error']:.3f} ({reduction:.1%} rel), "
        f"clean change {clean_change:+.3f}, "
        f"corrupted ECE {summary['baseline_corrupted_ece']:.3f} -> "
        f"{summary['mollified_corrupted_ece']:.3f}, "
        f"corrupted NLL {summary['baseline_corrupted_nll']:.3f} -> "
        f"{summary['mollified_corrupted_nll']:.3f}"
    )
    # printed before the assertions so the numbers are visible either way
    print(f"[criterion 10 measurements] {detail}")
    assert reduction >= 0.15, f"corrupted-error reduction below 15%: {detail}"
    assert clean_change <= 0.03, f"clean error degraded by more than 3 points: {detail}"
    assert (
        summary["mollified_corrupted_ece"]
        <= summary["baseline_corrupted_ece"] + 1e-9
    ), f"corrupted ECE worsened: {detail}"
    _report("criterion 10 (desk-scale robustness effect)", detail)


def test_criterion_11_ece_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        c = int(rng.integers(2, 6))
        rows, classes = [], []
        for _ in range(n):
            rows.append(rng.dirichlet(np.ones(c) * rng.uniform(0.3, 3.0)))
            classes.append(int(rng.integers(0, c)))
        records = predictions(rows, classes)
        bins = int(rng.integers(1, 25))
        worst = max(worst, abs(ece(records, bins) - brute_force_ece(records, bins)))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(
        "criterion 11 (ECE oracle)",
        f"max |ece - brute force| = {worst:.2e} over 1000 record sets, {elapsed:.1f}s",
    )


def test_criterion_12_train_determinism(tmp_path):
    from datamoll.cli import main

    raw, labels = grating_dataset(96, seed=31)
    dataset = standardized_dataset(raw, labels, 4, provenance="determinism")
    data_path = tmp_path / "d.mol1"
    save_mol1(dataset, data_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "train",
                "--dataset", str(data_path),
                "--out", str(out),
                "--seed", "12",
                "--epochs", "5",
                "--batch-size", "32",
            ]
        )
        assert code == 0
        outs.append(out)
    first = (outs[0] / "params.bin").read_bytes()
    second = (outs[1] / "params.bin").read_bytes()
    assert first == second
    _report(
        "criterion 12 (training determinism)",
        f"parameter files byte-identical ({len(first)} bytes)",
    )
