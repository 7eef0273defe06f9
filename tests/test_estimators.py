"""Unit tests for all shrinkage estimators.

The numeric expectations below are hand evaluations of the closed-form
estimator formulas (factors, interval bounds, thresholds); tolerances are
1e-9 unless a looser one is stated next to the value.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinbn.estimators import (
    classical_c_bound,
    gamma_scale_shrink,
    geometric_mean,
    js_mean_channels,
    js_mean_classical,
    js_mean_factor,
    js_variance_channels,
    khoshsirat_variance,
    lasso_mean,
    lasso_variance,
    perturbed_c_bound,
    ridge_mean,
    ridge_variance,
    variance_c_bound,
    variance_gamma_params,
)
from steinbn.tensor import InvalidInputError

TOL = 1e-9


class TestJsMeanClassical:
    def test_four_coordinate_example(self):
        out = js_mean_classical(np.array([2.0, 0.0, 0.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0, 0.0], atol=TOL)

    def test_ones_vector(self):
        out = js_mean_classical(np.ones(3), 1.0)
        np.testing.assert_allclose(out, np.full(3, 2.0 / 3.0), atol=TOL)

    def test_factor_vanishes_at_critical_norm(self):
        p = 5
        z = np.zeros(p)
        z[0] = math.sqrt(p - 2)
        np.testing.assert_allclose(js_mean_classical(z, 1.0), 0.0, atol=TOL)

    def test_negative_factor_not_clipped(self):
        z = np.array([0.5, 0.0, 0.0])  # ||z||^2 = 0.25 < p-2 = 1
        out = js_mean_classical(z, 1.0)
        assert out[0] < 0

    def test_small_p_rejected(self):
        with pytest.raises(InvalidInputError):
            js_mean_classical(np.ones(2), 1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroDivisionError):
            js_mean_classical(np.zeros(4), 1.0)

    @given(st.permutations(list(range(4))))
    @settings(max_examples=24, deadline=None)
    def test_permutation_equivariance(self, perm):
        z = np.array([1.0, -2.0, 0.5, 3.0])
        out = js_mean_classical(z, 1.0)
        np.testing.assert_allclose(js_mean_classical(z[perm], 1.0), out[perm], atol=TOL)

    def test_sign_flip_invariance_of_factor(self):
        z = np.array([1.0, -2.0, 0.5, 3.0])
        np.testing.assert_allclose(js_mean_classical(-z, 1.0), -js_mean_classical(z, 1.0), atol=TOL)


class TestJsMeanChannels:
    def test_zero_dispersion_is_identity(self):
        mu = np.ones(4)
        np.testing.assert_allclose(js_mean_channels(mu), mu, atol=TOL)

    def test_population_variance_example(self):
        # mu=(2,0,0,0): population var 0.75, factor 1 - 2*0.75/4 = 0.625
        out = js_mean_channels(np.array([2.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [1.25, 0.0, 0.0, 0.0], atol=TOL)

    @given(a=st.floats(0.1, 10))
    @settings(max_examples=30, deadline=None)
    def test_factor_scale_invariance(self, a):
        mu = np.array([1.0, 3.0, -2.0, 0.5])
        f0, _ = js_mean_factor(mu)
        f1, _ = js_mean_factor(a * mu)
        assert f1 == pytest.approx(f0, rel=1e-9)

    def test_small_c_degrades_to_identity(self):
        mu = np.array([1.0, 2.0])
        factor, degraded = js_mean_factor(mu)
        assert factor == 1.0 and degraded
        np.testing.assert_array_equal(js_mean_channels(mu), mu)

    def test_zero_vector_degrades_to_identity(self):
        factor, degraded = js_mean_factor(np.zeros(4))
        assert factor == 1.0 and degraded

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_factor_bounded_below_by_2_over_c(self, vals):
        # var(mu) <= ||mu||^2/C forces the factor into [2/C, 1], so a
        # positive-part clip could never change it
        mu = np.asarray(vals)
        if float(mu @ mu) == 0.0:
            return
        factor, degraded = js_mean_factor(mu)
        if degraded:
            return
        assert 2.0 / mu.size - 1e-12 <= factor <= 1.0 + 1e-12


class TestGammaScaleShrink:
    def test_c_zero_is_naive(self):
        out = gamma_scale_shrink(np.ones(3), alpha=4.5, c=0.0)
        np.testing.assert_allclose(out, 1.0 / 5.5, atol=TOL)

    def test_direct_formula(self):
        out = gamma_scale_shrink(np.array([1.0, 4.0]), alpha=1.0, c=0.1)
        np.testing.assert_allclose(out, [0.7, 2.2], atol=TOL)

    def test_classical_bound_value(self):
        assert classical_c_bound(4.5, 3) == pytest.approx(4.0 / (5.5 * 14.5), abs=TOL)
        assert classical_c_bound(4.5, 3) == pytest.approx(0.050157, abs=1e-6)

    def test_nonpositive_entries_rejected(self):
        with pytest.raises(InvalidInputError):
            gamma_scale_shrink(np.array([1.0, 0.0]), alpha=1.0, c=0.1)

    @given(
        c_frac=st.floats(0, 1),
        alpha=st.floats(0.5, 10),
        scale=st.floats(0.01, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_positive_output_inside_interval(self, c_frac, alpha, scale):
        x = scale * np.array([0.5, 1.0, 2.0, 4.0])
        c = c_frac * classical_c_bound(alpha, x.size)
        assert np.all(gamma_scale_shrink(x, alpha, c) > 0)


class TestIntervalBounds:
    def test_perturbed_bound_paper_value(self):
        # 2p/(ap+1)*e^{1/a}*sqrt(1+1/a) - 2/(a+1) at a=4.5, p=3
        assert perturbed_c_bound(4.5, 3) == pytest.approx(0.2077, abs=5e-5)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.5, 10.0])
    @pytest.mark.parametrize("p", [2, 3, 8, 64])
    def test_interval_containment_grid(self, alpha, p):
        assert classical_c_bound(alpha, p) < perturbed_c_bound(alpha, p)


class TestJsVarianceChannels:
    def test_c_zero(self):
        out = js_variance_channels(np.ones(3), n=10, c=0.0)
        np.testing.assert_allclose(out, 10.0 / 11.0, atol=TOL)

    def test_upper_bound_value_and_formula(self):
        bound = variance_c_bound(10, 3)
        assert bound == pytest.approx(80.0 / 319.0, abs=TOL)
        assert bound == pytest.approx(0.25078, abs=1e-5)
        out = js_variance_channels(np.ones(3), n=10, c=bound)
        np.testing.assert_allclose(out, 10.0 / 11.0 + 80.0 / 319.0, atol=TOL)

    def test_constant_vector(self):
        a, n, c = 2.5, 7, 0.03
        out = js_variance_channels(np.full(5, a), n=n, c=c)
        np.testing.assert_allclose(out, n / (n + 1.0) * a + c * a, atol=TOL)

    def test_zero_entries_floored(self):
        out = js_variance_channels(np.array([0.0, 1.0, 1.0]), n=4, c=0.0)
        assert out[0] == pytest.approx(4.0 / 5.0 * 1e-12, abs=1e-20)

    def test_small_n_rejected(self):
        with pytest.raises(InvalidInputError):
            js_variance_channels(np.ones(3), n=1, c=0.0)

    @given(
        n=st.integers(2, 4096),
        p=st.integers(2, 64),
        c_frac=st.floats(0.0, 2.0),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_is_theorem_2_on_the_beta_scale(self, n, p, c_frac, scale, seed):
        # a channel's batch variance is Gamma(alpha=(n-1)/2, beta=2 sigma^2/n)
        # and BN estimates sigma^2 = (n/2) beta, so its rule and its bound are
        # Theorem 2's estimator of beta and bound, scaled by n/2, at c = 2c~/n
        alpha = (n - 1) / 2.0
        bound = variance_c_bound(n, p)
        assert bound == pytest.approx(n / 2.0 * classical_c_bound(alpha, p), rel=1e-14)
        var = scale * np.random.default_rng(seed).uniform(0.05, 20.0, size=p)
        c = c_frac * bound
        np.testing.assert_allclose(
            js_variance_channels(var, n, c),
            n / 2.0 * gamma_scale_shrink(var, alpha, 2.0 * c / n),
            rtol=1e-14,
            atol=0,
        )


class TestVarianceGammaParams:
    def test_paper_substitution(self):
        gp = variance_gamma_params(np.array([2.0]), n=10)
        assert gp.alpha == pytest.approx(4.5, abs=TOL)
        assert gp.betas[0] == pytest.approx(0.4, abs=TOL)

    def test_small_n_substitution(self):
        gp = variance_gamma_params(np.array([1.0]), n=3)
        assert gp.alpha == pytest.approx(1.0, abs=TOL)
        assert gp.betas[0] == pytest.approx(2.0 / 3.0, abs=TOL)

    def test_mean_matches_expected_population_variance(self):
        n, sigma2 = 10, 2.0
        gp = variance_gamma_params(np.array([sigma2]), n=n)
        assert gp.alpha * gp.betas[0] == pytest.approx((n - 1) * sigma2 / n, abs=TOL)

    def test_then_shrink_c_zero_is_naive(self):
        x = np.array([0.5, 1.5, 3.0])
        gp = variance_gamma_params(x, n=8)
        out = gamma_scale_shrink(x, gp.alpha, 0.0)
        np.testing.assert_array_equal(out, x / (gp.alpha + 1.0))

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            variance_gamma_params(np.array([1.0]), n=1)
        with pytest.raises(InvalidInputError):
            variance_gamma_params(np.array([0.0]), n=5)
        # sigma2 must be a vector, one variance per coordinate
        with pytest.raises(InvalidInputError, match="vector"):
            variance_gamma_params(np.ones((2, 3)), n=5)
        with pytest.raises(InvalidInputError, match="vector"):
            variance_gamma_params(np.float64(1.0), n=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_variance_refused(self, bad):
        # betas of nan or inf would score as risks of nan under a verdict
        with pytest.raises(InvalidInputError, match="finite positive"):
            variance_gamma_params(np.array([1.0, bad]), n=5)


class TestKhoshsiratVariance:
    def test_constant_vector_identity(self):
        v = np.full(4, 3.3)
        np.testing.assert_allclose(khoshsirat_variance(v), v, atol=TOL)

    def test_matches_gaussian_js_on_dispersed_vector(self):
        var = np.array([2.0, 0.01, 0.01, 0.01])
        expected = np.maximum(js_mean_channels(var), 1e-12)
        np.testing.assert_allclose(khoshsirat_variance(var), expected, atol=TOL)
        assert np.all(khoshsirat_variance(var) < var + TOL)  # shrunk toward smaller norm

    def test_outputs_floored(self):
        # the factor stays in [2/C, 1] so negatives cannot occur, but the
        # defensive floor must still hold on strongly dispersed vectors
        var = np.array([1e-6, 1e-6, 5.0])
        out = khoshsirat_variance(var)
        assert np.all(out >= 1e-12)
        factor, _ = js_mean_factor(var)
        assert 2.0 / 3.0 <= factor <= 1.0


class TestLassoRidge:
    def test_lasso_mean_examples(self):
        assert lasso_mean(1.0, 5, 3.0) == pytest.approx(0.7, abs=TOL)
        assert lasso_mean(-0.2, 1, 1.0) == 0.0  # threshold 0.5 exceeds magnitude
        assert lasso_mean(0.37, 4, 0.0) == pytest.approx(0.37, abs=TOL)

    @given(xbar=st.floats(-10, 10), n=st.integers(1, 50), lam=st.floats(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_lasso_mean_contraction(self, xbar, n, lam):
        assert abs(lasso_mean(xbar, n, lam)) <= abs(xbar) + 1e-15

    def test_lasso_variance_examples(self):
        assert lasso_variance(0.1, 0.4) == 0.0
        assert lasso_variance(1.0, 0.5) == pytest.approx(0.75, abs=TOL)
        assert lasso_variance(0.83, 0.0) == pytest.approx(0.83, abs=TOL)

    def test_ridge_mean_examples(self):
        assert ridge_mean(10.0, 5, 5.0) == pytest.approx(1.0, abs=TOL)
        assert ridge_mean(10.0, 5, 0.0) == pytest.approx(2.0, abs=TOL)
        assert ridge_mean(10.0, 5, 1e12) == pytest.approx(0.0, abs=TOL)

    def test_ridge_variance_examples(self):
        assert ridge_variance(1.2, 0.2) == pytest.approx(1.0, abs=TOL)
        assert ridge_variance(0.42, 0.0) == pytest.approx(0.42, abs=TOL)

    @given(s2=st.floats(0, 100), lam=st.floats(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_ridge_variance_never_inflates(self, s2, lam):
        assert ridge_variance(s2, lam) <= s2 + 1e-15


class TestBatchedRows:
    @given(
        p=st.integers(3, 128),
        rows=st.integers(1, 8),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_each_row_equals_its_own_call(self, p, rows, scale, seed):
        # a (rows, p) call is the stacked 1-D calls on its rows, bit for bit,
        # so the risk lab scores a block exactly as it would score each trial
        z = scale * np.random.default_rng(seed).normal(size=(rows, p))
        x = np.exp(z / scale)
        for fn, data in (
            (lambda v: js_mean_classical(v, 0.7), z),
            (lambda v: gamma_scale_shrink(v, 4.5, 0.01), x),
            (geometric_mean, x),
        ):
            batched = fn(data)
            assert len(batched) == rows
            for row, out in zip(data, batched):
                assert np.array_equal(fn(row), out)


class TestGeometricMean:
    def test_constant(self):
        assert geometric_mean(np.full(5, 3.0)) == pytest.approx(3.0, abs=TOL)

    def test_known_value(self):
        assert geometric_mean(np.array([1.0, 4.0])) == pytest.approx(2.0, abs=TOL)
