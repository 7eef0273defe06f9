"""Monte Carlo risk laboratory tests.

Analytic oracles: for theta=0, sigma=1, no noise the MLE risk is p and the
James-Stein risk is p - (p-2)^2 * E[1/chi2_p] = p - (p-2) = 2. For the Gamma
Stein identity the catalog functions have closed-form moments.
"""

import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinbn import risk
from steinbn.estimators import classical_c_bound
from steinbn.noise import NoiseSpec, truncated_levy_gauss
from steinbn.risk import (
    STEIN_CATALOG,
    VERDICT_DOMINATES,
    GammaTrialSpec,
    mc_key_inequality,
    mc_risk_gamma,
    mc_risk_gaussian,
    mc_stein_gamma_lemma,
)
from steinbn.tensor import InvalidInputError

NONE = NoiseSpec(family="none")


class TestGaussianRisk:
    def test_analytic_oracles_at_origin(self):
        (report,) = mc_risk_gaussian([np.zeros(8)], 1.0, NONE, 50_000, seed=1)
        mle, mle_se = report.estimator_risks["mle"]
        js, js_se = report.estimator_risks["js"]
        assert abs(mle - 8.0) < 3 * mle_se
        assert abs(js - 2.0) < 3 * js_se
        assert report.verdict == VERDICT_DOMINATES

    def test_dominance_under_truncated_noise(self):
        (report,) = mc_risk_gaussian([np.zeros(8)], 1.0, truncated_levy_gauss(0.1), 50_000, seed=2)
        assert report.verdict == VERDICT_DOMINATES
        assert report.margin_se >= 3.0

    def test_scaling_reduction(self):
        # (theta, sigma) and (theta/sigma, 1) give the same JS/MLE risk ratio
        theta = np.array([1.0, -2.0, 0.5, 1.5])
        (r1,) = mc_risk_gaussian([theta], 2.0, NONE, 100_000, seed=3)
        (r2,) = mc_risk_gaussian([theta / 2.0], 1.0, NONE, 100_000, seed=3)
        ratio1 = r1.estimator_risks["js"][0] / r1.estimator_risks["mle"][0]
        ratio2 = r2.estimator_risks["js"][0] / r2.estimator_risks["mle"][0]
        assert ratio1 == pytest.approx(ratio2, rel=0.02)

    def test_se_shrinks_with_trials(self):
        (small,) = mc_risk_gaussian([np.zeros(4)], 1.0, NONE, 10_000, seed=4)
        (large,) = mc_risk_gaussian([np.zeros(4)], 1.0, NONE, 100_000, seed=4)
        se_small, se_large = small.estimator_risks["mle"][1], large.estimator_risks["mle"][1]
        assert se_small / se_large == pytest.approx(np.sqrt(10), rel=0.2)

    def test_reproducibility(self):
        (a,) = mc_risk_gaussian([np.zeros(4)], 1.0, NONE, 20_000, seed=5)
        (b,) = mc_risk_gaussian([np.zeros(4)], 1.0, NONE, 20_000, seed=5)
        assert a.to_json() == b.to_json()

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            mc_risk_gaussian([np.zeros(2)], 1.0, NONE, 1_000, seed=0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, -1.0, True])
    def test_sigma_outside_its_domain_rejected_before_running(self, sigma):
        # nan returned an Inconclusive report of NaN risks, and 0 was refused
        # naming variance_scale, a parameter of js_mean_classical
        with mock.patch.object(risk, "_run_trials", side_effect=AssertionError("ran")):
            with pytest.raises(InvalidInputError, match=re.escape(f"sigma must be a finite number > 0, got {sigma!r}")):
                mc_risk_gaussian([np.zeros(8)], sigma, NONE, 1_000, seed=0)

    def test_one_vector_theta_rejected_before_running(self):
        # a grid of one vector is [theta]; a bare vector is not read as a
        # grid of p one-entry vectors
        with mock.patch.object(risk, "_run_trials", side_effect=AssertionError("ran")):
            with pytest.raises(InvalidInputError, match=r"got shape \(4,\)"):
                mc_risk_gaussian(np.zeros(4), 1.0, NONE, 1_000, seed=0)
            with pytest.raises(InvalidInputError, match=r"got shape \(4,\)"):
                mc_key_inequality(np.zeros(4), NONE, 1_000, seed=0)

    @pytest.mark.parametrize("theta", [np.full(8, 3.6e299), np.array([np.inf, 0, 0]), np.array([np.nan, 0, 0])])
    def test_theta_with_overflowing_norm_rejected(self, theta):
        # the risks would read 0 or NaN under a vacuous verdict
        p = theta.size
        with pytest.raises(InvalidInputError, match="squared norm must be finite"):
            mc_risk_gaussian([theta], 1.0, NONE, 1_000, seed=0)
        with pytest.raises(InvalidInputError, match="squared norm must be finite"):
            mc_key_inequality([theta], NONE, 1_000, seed=0)
        with pytest.raises(InvalidInputError, match="squared norm must be finite"):
            mc_risk_gaussian([np.zeros(p), theta], 1.0, NONE, 1_000, seed=0)

    def test_theta_that_rounds_off_the_draws_rejected(self):
        # float64 spacing at 2**33 is 2**-19 (1.9e-6), at 2**32 it is 2**-20
        # (9.5e-7); the refusal sits between them at sigma = 1 and moves with sigma
        big, ok = np.array([2.0**33, 0, 0]), np.array([2.0**32, 0, 0])
        with pytest.raises(InvalidInputError, match="theta's entry 8.58993e"):
            mc_risk_gaussian([big], 1.0, NONE, 100, seed=0)
        with pytest.raises(InvalidInputError, match="theta's entry 8.58993e"):
            mc_key_inequality([ok, big], NONE, 100, seed=0)
        mc_risk_gaussian([big], 4.0, NONE, 100, seed=0)
        mc_risk_gaussian([ok], 1.0, NONE, 100, seed=0)
        mc_key_inequality([ok], NONE, 100, seed=0)

    def test_report_json_roundtrip(self):
        (report,) = mc_risk_gaussian([np.zeros(4)], 1.0, NONE, 10_000, seed=6)
        back = json.loads(report.to_json())
        assert back["verdict"] == report.verdict
        assert back["estimator_risks"] == {k: list(v) for k, v in report.estimator_risks.items()}


class TestGammaRisk:
    def make_spec(self, c, noise=NONE, p=3, n=10, sigmas=None):
        sigmas = np.ones(p) if sigmas is None else sigmas
        return GammaTrialSpec(n=n, mu=0.0, sigmas_x=sigmas, noise=noise, c=c)

    def test_c_zero_exact_equality(self):
        (report,) = mc_risk_gamma([self.make_spec(0.0)], 5_000, seed=1)
        naive, _ = report.estimator_risks["naive"]
        js, _ = report.estimator_risks["js"]
        assert js == naive
        assert report.verdict == VERDICT_DOMINATES
        assert report.margin_se == float("inf")

    def test_dominance_at_midpoint_clean(self):
        alpha = (10 - 1) / 2.0
        from steinbn.estimators import classical_c_bound

        c = classical_c_bound(alpha, 3) / 2.0
        (report,) = mc_risk_gamma([self.make_spec(c)], 100_000, seed=2)
        assert report.verdict == VERDICT_DOMINATES
        assert report.margin_se >= 3.0

    def test_dominance_under_noise(self):
        alpha = (10 - 1) / 2.0
        from steinbn.estimators import classical_c_bound

        c = classical_c_bound(alpha, 3) / 2.0
        (report,) = mc_risk_gamma([self.make_spec(c, noise=truncated_levy_gauss(0.1))], 100_000, seed=3)
        assert report.verdict == VERDICT_DOMINATES

    def test_heteroscedastic_spec(self):
        from steinbn.estimators import classical_c_bound

        alpha = (10 - 1) / 2.0
        sigmas = np.array([2.0, 0.5, 0.5])  # 4:1 spread
        c = classical_c_bound(alpha, 3) / 2.0
        (report,) = mc_risk_gamma([self.make_spec(c, sigmas=sigmas)], 100_000, seed=4)
        assert report.verdict == VERDICT_DOMINATES

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            GammaTrialSpec(n=10, mu=0.0, sigmas_x=np.ones(1), noise=NONE, c=0.0)
        with pytest.raises(InvalidInputError):
            GammaTrialSpec(n=1, mu=0.0, sigmas_x=np.ones(3), noise=NONE, c=0.0)
        with pytest.raises(InvalidInputError):
            GammaTrialSpec(n=10, mu=0.0, sigmas_x=np.array([1.0, -1.0, 1.0]), noise=NONE, c=0.0)

    @pytest.mark.parametrize("n", [10.0, True])
    def test_non_integer_n_rejected(self, n):
        # n=10.0 built a spec with alpha 4.5 that failed in the draw reshape
        with pytest.raises(InvalidInputError, match=re.escape(f"n must be an integer >= 2, got {n!r}")):
            GammaTrialSpec(n=n, mu=0.0, sigmas_x=np.ones(3), noise=NONE)

    @pytest.mark.parametrize("field, value", [("mu", np.nan), ("mu", np.inf), ("c", np.nan), ("c", "0.1")])
    def test_non_finite_mu_or_c_rejected(self, field, value):
        spec = dict(n=10, mu=0.0, sigmas_x=np.ones(3), noise=NONE, c=None)
        with pytest.raises(InvalidInputError, match=f"^{field} must be"):
            GammaTrialSpec(**{**spec, field: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scale_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="positive scales"):
            GammaTrialSpec(n=10, mu=0.0, sigmas_x=np.array([1.0, bad, 1.0]), noise=NONE)

    @pytest.mark.parametrize("n, p", [(10, 3), (2, 2), (513, 16)])
    def test_default_c_is_the_classical_midpoint(self, n, p):
        spec = GammaTrialSpec(n=n, mu=0.0, sigmas_x=np.ones(p), noise=NONE, c=None)
        assert spec.c == classical_c_bound(spec.alpha, spec.p) / 2.0

    def test_mu_that_rounds_off_the_draws_rejected(self):
        # float64 spacing at 2**33 is 2**-19 (1.9e-6), at 2**32 it is 2**-20
        # (9.5e-7); the refusal sits between them at min(sigmas_x) = 1, takes
        # mu's sign off and moves with min(sigmas_x)
        for mu in (2.0**33, -(2.0**33)):
            with pytest.raises(InvalidInputError, match=re.escape(f"mu={mu:g} rounds draws of scale min")):
                GammaTrialSpec(n=10, mu=mu, sigmas_x=np.array([4.0, 1.0]), noise=NONE)
        GammaTrialSpec(n=10, mu=2.0**32, sigmas_x=np.array([4.0, 1.0]), noise=NONE)
        GammaTrialSpec(n=10, mu=2.0**33, sigmas_x=np.array([4.0, 2.0]), noise=NONE)

    def test_alpha_beta_mapping(self):
        spec = self.make_spec(0.0, n=10, sigmas=np.array([1.0, 2.0, 0.5]))
        assert spec.alpha == 4.5
        np.testing.assert_allclose(spec.betas, 2.0 * spec.sigmas_x**2 / 10.0, atol=1e-15)


class TestKeyInequality:
    def test_analytic_value_at_origin(self):
        for p in (3, 10):
            ((est, se, holds),) = mc_key_inequality([np.zeros(p)], NONE, 200_000, seed=1)
            assert abs(est - 1.0) < 3 * se
            assert holds

    def test_large_theta_margin_shrinks_but_holds(self):
        theta = np.full(3, 100.0 / np.sqrt(3))
        ((est, se, holds),) = mc_key_inequality([theta], NONE, 1_000_000, seed=2)
        assert holds
        assert est == pytest.approx(2.0, abs=0.01)  # estimate approaches 2 from below

    def test_small_p_rejected(self):
        with pytest.raises(InvalidInputError):
            mc_key_inequality([np.zeros(2)], NONE, 1_000, seed=0)

    @given(
        p=st.integers(3, 64),
        theta_norm=st.floats(0.0, 20.0),
        eps=st.sampled_from([0.0, 0.1, 0.3]),
        n_trials=st.integers(2, 400),
        seed=st.integers(0, 2**31),
        k=st.floats(0.5, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_is_theorem_1s_risk_gap(self, p, theta_norm, eps, n_trials, seed, k):
        # with Z = theta + N + Y and sigma = 1, trial by trial
        # |JS(Z) - theta|^2 - |Z - theta|^2 = (p - 2) [(2 Z.theta + p - 2) / |Z|^2 - 2],
        # and at one seed both checks draw the same N and Y; so the paired risk
        # gap is (p - 2)(estimate - 2), to round-off of the risks' size, and
        # the two checks decide alike unless the margin is within round-off of k
        theta = np.full(p, theta_norm / np.sqrt(p))
        noise = truncated_levy_gauss(eps)
        (report,) = mc_risk_gaussian([theta], 1.0, noise, n_trials, seed, k=k)
        ((est, _, holds),) = mc_key_inequality([theta], noise, n_trials, seed, k=k)
        mle, js = report.estimator_risks["mle"][0], report.estimator_risks["js"][0]
        assert js - mle == pytest.approx((p - 2) * (est - 2.0), rel=1e-12, abs=1e-12 * (mle + js))
        if abs(report.margin_se - k) > 1e-9 * k:
            assert (report.verdict == VERDICT_DOMINATES) == holds


class TestSteinGammaLemma:
    def test_identity_function_moments(self):
        # lhs = Var(X) = alpha*beta^2 = rhs = beta*E[X]
        ((lhs, rhs, gap),) = mc_stein_gamma_lemma(4.5, 0.4, ["identity"], 200_000, seed=1)
        assert lhs == pytest.approx(4.5 * 0.16, rel=0.05)
        assert rhs == pytest.approx(4.5 * 0.16, rel=0.05)
        assert abs(gap) < 4.0

    def test_square_function_moments(self):
        # both sides equal 2*alpha*beta^3*(alpha+1)
        alpha, beta = 1.0, 1.0
        ((lhs, rhs, gap),) = mc_stein_gamma_lemma(alpha, beta, ["square"], 400_000, seed=2)
        expected = 2.0 * alpha * beta**3 * (alpha + 1.0)
        assert rhs == pytest.approx(expected, rel=0.05)
        assert abs(gap) < 4.0

    @pytest.mark.parametrize("h", sorted(STEIN_CATALOG))
    def test_catalog_within_four_se(self, h):
        ((_, _, gap),) = mc_stein_gamma_lemma(4.5, 0.4, [h], 200_000, seed=3)
        assert abs(gap) < 4.0

    def test_unknown_function_rejected(self):
        with pytest.raises(InvalidInputError):
            mc_stein_gamma_lemma(1.0, 1.0, ["cube"], 1_000, seed=0)

    def test_bare_name_rejected(self):
        with pytest.raises(InvalidInputError, match="sequence of catalog names"):
            mc_stein_gamma_lemma(1.0, 1.0, "square", 1_000, seed=0)

    def test_alpha_floor_enforced(self):
        with pytest.raises(InvalidInputError):
            mc_stein_gamma_lemma(0.005, 1.0, ["log"], 1_000, seed=0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidInputError):
            mc_stein_gamma_lemma(-1.0, 1.0, ["square"], 1_000, seed=0)


class TestBlockIndependence:
    """Every Monte Carlo check gives the same output for any block size."""

    @staticmethod
    def run_all(n_trials, seed):
        noise = truncated_levy_gauss(0.3)
        theta = np.linspace(-1.0, 1.0, 5)
        spec = GammaTrialSpec(n=6, mu=0.5, sigmas_x=np.array([2.0, 1.0, 0.5, 1.5]), noise=noise, c=0.01)
        return (
            mc_risk_gaussian([theta], 1.3, noise, n_trials, seed)[0].to_json(),
            mc_risk_gamma([spec], n_trials, seed)[0].to_json(),
            mc_key_inequality([theta], noise, n_trials, seed),
            mc_stein_gamma_lemma(4.5, 0.4, ["square"], n_trials, seed),
        )

    @given(block=st.integers(1, 700), n_trials=st.integers(2, 600), seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_outputs_do_not_depend_on_block(self, block, n_trials, seed):
        reference = self.run_all(n_trials, seed)
        with mock.patch.object(risk, "_BLOCK", block):
            assert self.run_all(n_trials, seed) == reference

    @pytest.mark.parametrize("block", [1000, 777])
    def test_lemma_at_100k_trials(self, block):
        reference = mc_stein_gamma_lemma(4.5, 0.4, ["square"], 100_000, seed=1)
        with mock.patch.object(risk, "_BLOCK", block):
            assert mc_stein_gamma_lemma(4.5, 0.4, ["square"], 100_000, seed=1) == reference

    @pytest.mark.parametrize("block", [1, 4, 23])
    def test_trial_larger_than_a_block(self, block):
        # a Theorem-2 trial here draws 24 values and a Theorem-1 or inequality
        # trial 5, so at these block sizes (in draws) a block holds one trial
        # of Theorem 2, and at 1 and 4 one trial of the others as well
        reference = self.run_all(50, seed=9)
        with mock.patch.object(risk, "_BLOCK", block):
            assert self.run_all(50, seed=9) == reference


GRID_NOISES = [NONE, truncated_levy_gauss(0.3), NoiseSpec(family="gaussian", sigma=0.5)]


class TestSharedDraws:
    """A grid of entries scored on shared draws gives, entry by entry,
    exactly what a grid of each entry alone gives."""

    @staticmethod
    def gamma_specs(noise):
        return [
            GammaTrialSpec(n=5, mu=mu, sigmas_x=np.array(sig), noise=noise, c=c)
            for mu, sig, c in ((0.0, [1.0, 1.0, 1.0], None), (0.5, [2.0, 1.0, 0.5], 0.02),
                               (-1.0, [0.3, 3.0, 1.0], 0.0))
        ]

    @given(
        block=st.integers(1, 300),
        n_trials=st.integers(2, 200),
        seed=st.integers(0, 2**31),
        noise=st.sampled_from(GRID_NOISES),
    )
    @settings(max_examples=25, deadline=None)
    def test_shared_equals_per_entry(self, block, n_trials, seed, noise):
        thetas = [np.zeros(4), np.full(4, 0.5), np.array([3.0, -1.0, 0.0, 2.0])]
        specs = self.gamma_specs(noise)
        names = sorted(STEIN_CATALOG)
        with mock.patch.object(risk, "_BLOCK", block):
            shared = mc_risk_gaussian(thetas, 1.3, noise, n_trials, seed)
            assert [r.to_json() for r in shared] == [
                r.to_json() for t in thetas for r in mc_risk_gaussian([t], 1.3, noise, n_trials, seed)
            ]
            assert [r.to_json() for r in mc_risk_gamma(specs, n_trials, seed)] == [
                r.to_json() for s in specs for r in mc_risk_gamma([s], n_trials, seed)
            ]
            assert mc_key_inequality(np.array(thetas), noise, n_trials, seed) == [
                r for t in thetas for r in mc_key_inequality([t], noise, n_trials, seed)
            ]
            assert mc_stein_gamma_lemma(2.5, 0.7, names, n_trials, seed) == [
                r for h in names for r in mc_stein_gamma_lemma(2.5, 0.7, [h], n_trials, seed)
            ]

    def test_gamma_specs_must_share_their_draws(self):
        specs = self.gamma_specs(NONE)
        other_n = GammaTrialSpec(n=6, mu=0.0, sigmas_x=np.ones(3), noise=NONE)
        other_noise = self.gamma_specs(truncated_levy_gauss(0.1))[0]
        for odd in (other_n, other_noise):
            with pytest.raises(InvalidInputError, match="agree on p, n and noise"):
                mc_risk_gamma([*specs, odd], 100, seed=1)
        with pytest.raises(InvalidInputError):
            mc_risk_gamma([], 100, seed=1)

    def test_every_lemma_name_checked(self):
        with pytest.raises(InvalidInputError, match="'cube'"):
            mc_stein_gamma_lemma(1.0, 1.0, ["square", "cube"], 100, seed=1)
        with pytest.raises(InvalidInputError, match="'log' needs alpha"):
            mc_stein_gamma_lemma(0.005, 1.0, ["square", "log"], 100, seed=1)
        with pytest.raises(InvalidInputError):
            mc_stein_gamma_lemma(1.0, 1.0, [], 100, seed=1)


class TestBlockMemory:
    """A check's peak memory is a few block-sized arrays plus a few floats per
    trial (its per-trial columns and the reductions over them), however many
    draws a trial takes; the block arrays do not grow with n_trials."""

    N_TRIALS = 100_000
    PER_TRIAL = 6 * 8  # bytes: six float64 per trial
    BLOCK_ARRAYS = 6  # arrays of _BLOCK float64 live at once

    SPEC = GammaTrialSpec(
        n=10, mu=0.0, sigmas_x=np.linspace(2.0, 0.5, 8), noise=truncated_levy_gauss(0.1), c=0.01
    )
    CHECKS = {
        "gaussian-p64": lambda n: mc_risk_gaussian([np.full(64, 0.125)], 1.0, truncated_levy_gauss(0.3), n, 1),
        "gamma-p8-n10": lambda n: mc_risk_gamma([TestBlockMemory.SPEC], n, 1),
        "inequality-p10": lambda n: mc_key_inequality([np.full(10, 0.3)], truncated_levy_gauss(0.1), n, 1),
        "lemma": lambda n: mc_stein_gamma_lemma(4.5, 0.4, ["square"], n, 1),
    }

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_peak_is_bounded_by_the_block(self, name):
        check = self.CHECKS[name]
        check(100)  # imports and first-call caches are not the block's
        tracemalloc.start()
        try:
            check(self.N_TRIALS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = self.PER_TRIAL * self.N_TRIALS + self.BLOCK_ARRAYS * 8 * risk._BLOCK
        assert peak <= bound, f"{name}: peak {peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"
