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
    GammaParams,
    ShrinkageConstant,
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

    @pytest.mark.parametrize("mu", [np.array([1.0, 2.0]), np.zeros(4)])
    def test_unknown_convention_rejected_before_degrading(self, mu):
        with pytest.raises(InvalidInputError, match="variance convention"):
            js_mean_factor(mu, variance_convention="bessel")

    def test_zero_vector_degrades_to_identity(self):
        factor, degraded = js_mean_factor(np.zeros(4))
        assert factor == 1.0 and degraded

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_factor_bounded_below_by_2_over_c(self, vals):
        # var(mu) <= ||mu||^2/C forces the factor into [2/C, 1], so the
        # positive-part option can never change it
        mu = np.asarray(vals)
        if float(mu @ mu) == 0.0:
            return
        factor, degraded = js_mean_factor(mu)
        if degraded:
            return
        assert 2.0 / mu.size - 1e-12 <= factor <= 1.0 + 1e-12
        clipped, _ = js_mean_factor(mu, positive_part=True)
        assert clipped == factor

    def test_sample_convention_option(self):
        mu = np.array([2.0, 0.0, 0.0, 0.0])
        f_pop, _ = js_mean_factor(mu, variance_convention="population")
        f_smp, _ = js_mean_factor(mu, variance_convention="sample")
        assert f_pop == pytest.approx(0.625, abs=TOL)
        assert f_smp == pytest.approx(1.0 - 2.0 * 1.0 / 4.0, abs=TOL)

    def test_unknown_convention_rejected(self):
        with pytest.raises(InvalidInputError):
            js_mean_factor(np.ones(4), variance_convention="bogus")


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

    def test_shrinkage_constant_midpoint(self):
        sc = ShrinkageConstant.midpoint(4.5, 3)
        assert sc.admissible_lo == 0.0
        assert sc.admissible_hi == pytest.approx(classical_c_bound(4.5, 3), abs=TOL)
        assert sc.c_tilde == pytest.approx(sc.admissible_hi / 2.0, abs=TOL)
        assert sc.in_interval

    def test_shrinkage_constant_out_of_interval_flag(self):
        sc = ShrinkageConstant(c_tilde=1.0, admissible_lo=0.0, admissible_hi=0.05)
        assert not sc.in_interval


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
        with pytest.raises(InvalidInputError):
            GammaParams(alpha=0.0, betas=np.array([1.0]))


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
