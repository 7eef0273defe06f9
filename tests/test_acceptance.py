"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Dominance margins are reported in paired-difference standard errors (both
estimators score the same draws), which is the sharp test of the strict
inequality; per-estimator risks and their own standard errors are also
checked where an analytic value exists.
"""

import time

import numpy as np
import pytest
from scipy import stats

from steinbn.batchnorm import bn_backward, bn_forward
from steinbn.estimators import (
    classical_c_bound,
    gamma_scale_shrink,
    js_mean_channels,
    js_variance_channels,
    lasso_mean,
    lasso_variance,
    perturbed_c_bound,
    ridge_mean,
    ridge_variance,
    variance_c_bound,
    variance_gamma_params,
)
from steinbn.harness import ExperimentConfig, evaluate_under_noise, train_model
from steinbn.nn import BatchNorm
from steinbn.noise import (
    NoiseSpec,
    levy_gauss_cdf,
    levy_gauss_quantile,
    sample_noise_flat,
    subgaussian_proxy_of_bound,
    truncated_levy_gauss,
)
from steinbn.risk import (
    STEIN_CATALOG,
    VERDICT_DOMINATES,
    GammaTrialSpec,
    mc_key_inequality,
    mc_risk_gamma,
    mc_risk_gaussian,
    mc_stein_gamma_lemma,
)
from steinbn.rng import CounterRng
from steinbn.tensor import channel_moments

from test_batchnorm import frozen_forward


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_theorem_1_gaussian_dominance():
    start = time.time()
    worst = np.inf
    norms = (0.0, 1.0, 10.0)
    for p in (3, 8, 64):
        # the three norms of one (p, eps) cell share their draws
        thetas = [np.full(p, norm / np.sqrt(p)) for norm in norms]
        for eps in (0.0, 0.1, 0.3):
            reps = mc_risk_gaussian(thetas, 1.0, truncated_levy_gauss(eps), 100_000, seed=1)
            for norm, rep in zip(norms, reps):
                assert rep.verdict == VERDICT_DOMINATES, (p, norm, eps, rep.margin_se)
                assert rep.margin_se >= 3.0, (p, norm, eps, rep.margin_se)
                worst = min(worst, rep.margin_se)
                if p == 8 and norm == 0.0 and eps == 0.0:
                    mle, mle_se = rep.estimator_risks["mle"]
                    js, js_se = rep.estimator_risks["js"]
                    assert abs(mle - 8.0) < 3 * mle_se
                    assert abs(js - 2.0) < 3 * js_se
    elapsed = time.time() - start
    report(
        "1 Theorem 1 Gaussian dominance",
        elapsed < 120.0,
        f"(27 cells, worst margin {worst:.1f} se, {elapsed:.0f}s)",
    )


def test_criterion_2_theorem_2_gamma_dominance():
    worst = np.inf
    for p in (3, 8):
        for n in (10, 32):
            alpha = (n - 1) / 2.0
            c = classical_c_bound(alpha, p) / 2.0
            spreads = {"equal": np.ones(p), "hetero": np.linspace(2.0, 0.5, p)}
            for eps in (0.0, 0.1):
                # the two spreads of one (p, n, eps) cell share their draws
                specs = [
                    GammaTrialSpec(n=n, mu=0.0, sigmas_x=sigmas, noise=truncated_levy_gauss(eps), c=c)
                    for sigmas in spreads.values()
                ]
                for spread, rep in zip(spreads, mc_risk_gamma(specs, 50_000, seed=2)):
                    assert rep.verdict == VERDICT_DOMINATES, (p, n, spread, eps, rep.margin_se)
                    assert rep.margin_se >= 3.0, (p, n, spread, eps, rep.margin_se)
                    worst = min(worst, rep.margin_se)
    # exact equality at c = 0
    spec0 = GammaTrialSpec(n=10, mu=0.0, sigmas_x=np.ones(3), noise=NoiseSpec("none"), c=0.0)
    (rep0,) = mc_risk_gamma([spec0], 10_000, seed=2)
    assert rep0.estimator_risks["js"] == rep0.estimator_risks["naive"]
    # interval containment over the full grid
    for alpha in (0.5, 1.0, 2.0, 4.5, 10.0):
        for p in (2, 3, 8, 64):
            assert classical_c_bound(alpha, p) < perturbed_c_bound(alpha, p)
    report("2 Theorem 2 Gamma dominance", True, f"(16 cells, worst margin {worst:.1f} se)")


def test_criterion_3_key_inequality():
    worst = np.inf
    norms = (0.0, 1.0, 100.0)
    for p in (3, 10):
        # the three norms of one p share their draws
        thetas = [np.full(p, norm / np.sqrt(p)) for norm in norms]
        results = mc_key_inequality(thetas, NoiseSpec("none"), 1_000_000, seed=3)
        for norm, (est, se, holds) in zip(norms, results):
            assert holds, (p, norm, est, se)
            worst = min(worst, (2.0 - est) / se)
            if norm == 0.0:
                assert abs(est - 1.0) < 3 * se, (p, est, se)
    report("3 Appendix key inequality", True, f"(worst margin {worst:.1f} se)")


def test_criterion_4_stein_gamma_lemma():
    worst = 0.0
    names = sorted(STEIN_CATALOG)
    for alpha, beta in ((1.0, 1.0), (4.5, 0.4)):
        # the six functions of one (alpha, beta) share their gamma draws
        results = mc_stein_gamma_lemma(alpha, beta, names, 1_000_000, seed=4)
        for h, (_, _, gap) in zip(names, results):
            assert abs(gap) < 4.0, (alpha, beta, h, gap)
            worst = max(worst, abs(gap))
    report("4 Stein Gamma lemma", True, f"(12 cases, worst gap {worst:.2f} se)")


def test_criterion_5_noise_sampler():
    spec = NoiseSpec(family="levy-gauss", sigma=1.0, epsilon_bound=0.0)
    draws = sample_noise_flat(spec, 1_000_000, CounterRng(5), 1)
    ks = stats.kstest(draws, levy_gauss_cdf).statistic
    q = levy_gauss_quantile(0.75, sigma=1.0)
    ok = ks < 0.002 and abs(q - 0.70711) <= 1e-5
    report("5 Noise sampler", ok, f"(KS {ks:.5f}, quantile {q:.6f})")


def test_criterion_6_gradient_checks():
    rng = np.random.default_rng(6)
    worst = 0.0
    for variant in ("standard", "stein", "mean-only", "khoshsirat", "lasso", "ridge"):
        for trial in range(20):
            layer = BatchNorm(num_channels=4, variant=variant, lam=0.02)
            layer.gamma = rng.normal(size=4) + 1.5
            layer.beta = rng.normal(size=4)
            x = rng.normal(size=(2, 4, 3, 3))
            g = rng.normal(size=(2, 4, 3, 3))
            _, cache = bn_forward(layer, x)
            gin, _, _ = bn_backward(layer, cache, g)
            step = 1e-5
            fd = np.zeros_like(x)
            it = np.nditer(x, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                plus, minus = x.copy(), x.copy()
                plus[idx] += step
                minus[idx] -= step
                lp = float((g * frozen_forward(plus, layer, cache)).sum())
                lm = float((g * frozen_forward(minus, layer, cache)).sum())
                fd[idx] = (lp - lm) / (2 * step)
                it.iternext()
            rel = np.abs(gin - fd).max() / max(np.abs(fd).max(), 1e-8)
            assert rel < 1e-5, (variant, trial, rel)
            worst = max(worst, rel)
    report("6 Gradient checks", True, f"(6 variants x 20 tensors, worst rel err {worst:.1e})")


def test_criterion_7_table_1_trend():
    start = time.time()
    seeds = list(range(14, 24))
    base = dict(
        model="TinyCNN",
        n_classes=4,
        n_per_class=250,
        channels=3,
        hw=4,
        sep=3.0,
        max_epochs=20,
        noise_family="levy-gauss",
    )
    levels = [0, 10, 20, 30]
    acc = {}  # variant -> noise level -> list of accuracies
    for variant in ("standard", "stein", "mean-only"):
        per_level = {lv: [] for lv in levels}
        for bs in (32, 64):
            for seed in seeds:
                cfg = ExperimentConfig(bn_variant=variant, batch_size=bs, seeds=[seed], **base)
                ckpt = train_model(cfg, seed)
                for row in evaluate_under_noise(ckpt, levels, cfg.noise_family):
                    per_level[row.noise_pct].append(row.value)
        acc[variant] = {lv: float(np.mean(v)) for lv, v in per_level.items()}

    def noisy_mean(variant):
        return float(np.mean([acc[variant][lv] for lv in levels if lv >= 10]))

    stein, std, monly = noisy_mean("stein"), noisy_mean("standard"), noisy_mean("mean-only")
    clean_gap = abs(acc["stein"][0] - acc["standard"][0])
    elapsed = time.time() - start
    ok = stein > std and stein >= monly and clean_gap <= 3.0 and elapsed < 1800.0
    report(
        "7 Table 1 trend",
        ok,
        f"(noisy means stein {stein:.2f} > standard {std:.2f}, >= mean-only {monly:.2f}; "
        f"clean gap {clean_gap:.2f}pp, {elapsed:.0f}s)",
    )


def test_criterion_8_estimator_unit_suite():
    tol = 1e-9
    # estimators module examples
    np.testing.assert_allclose(js_mean_channels(np.array([2.0, 0.0, 0.0, 0.0])), [1.25, 0, 0, 0], atol=tol)
    np.testing.assert_allclose(js_mean_channels(np.ones(4)), np.ones(4), atol=tol)
    np.testing.assert_allclose(gamma_scale_shrink(np.ones(3), 4.5, 0.0), 1.0 / 5.5, atol=tol)
    np.testing.assert_allclose(gamma_scale_shrink(np.array([1.0, 4.0]), 1.0, 0.1), [0.7, 2.2], atol=tol)
    assert abs(classical_c_bound(4.5, 3) - 0.050157) < 1e-6
    np.testing.assert_allclose(js_variance_channels(np.ones(3), 10, 0.0), 10 / 11, atol=tol)
    assert abs(variance_c_bound(10, 3) - 80.0 / 319.0) < tol
    assert abs(variance_c_bound(10, 3) - 0.25078) < 1e-5
    gp = variance_gamma_params(np.array([2.0]), 10)
    assert gp.alpha == 4.5 and abs(gp.betas[0] - 0.4) < tol
    assert abs(lasso_mean(1.0, 5, 3.0) - 0.7) < tol
    assert lasso_mean(-0.2, 1, 1.0) == 0.0
    assert lasso_variance(0.1, 0.4) == 0.0
    assert abs(lasso_variance(1.0, 0.5) - 0.75) < tol
    assert abs(ridge_mean(10.0, 5, 5.0) - 1.0) < tol
    assert abs(ridge_mean(1.0, 1, 1e12)) < 1e-9
    assert abs(ridge_variance(1.2, 0.2) - 1.0) < tol
    # noise module examples
    assert levy_gauss_quantile(0.5) == 0.0
    assert abs(levy_gauss_quantile(0.75) - 0.70711) <= 1e-5
    assert subgaussian_proxy_of_bound(0.0) == 0.0
    assert abs(subgaussian_proxy_of_bound(0.1) - 0.02) < tol
    assert subgaussian_proxy_of_bound(1.0) == 2.0
    # normalization sanity from tensor-core examples
    x = np.random.default_rng(8).normal(size=(3, 4, 2, 2))
    stats_ = channel_moments(x)
    assert stats_.count == 12
    report("8 Estimator unit suite", True)
