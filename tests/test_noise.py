"""Tests for the perturbation samplers and the mixture density."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from steinbn.noise import (
    _MAX_RETRIES,
    NoiseSpec,
    levy_gauss_cdf,
    levy_gauss_pdf,
    levy_gauss_quantile,
    sample_noise_flat,
    subgaussian_proxy_of_bound,
    truncated_levy_gauss,
)
from steinbn.rng import CounterRng
from steinbn.tensor import InvalidInputError


class TestDensity:
    def test_pdf_integrates_to_one(self):
        total, _ = integrate.quad(levy_gauss_pdf, -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_cdf_matches_numeric_integration(self):
        # anti-drift check: closed-form F against quadrature of f
        for x in [-3.0, -0.7, 0.0, 0.70711, 2.5]:
            numeric, _ = integrate.quad(levy_gauss_pdf, -np.inf, x)
            assert levy_gauss_cdf(x) == pytest.approx(numeric, abs=1e-8)

    def test_cdf_sigma_scaling(self):
        assert levy_gauss_cdf(2.0, sigma=2.0) == pytest.approx(levy_gauss_cdf(1.0, sigma=1.0), abs=1e-12)

    def test_quantile_median(self):
        assert levy_gauss_quantile(0.5) == 0.0

    def test_quantile_75_percent(self):
        assert levy_gauss_quantile(0.75, sigma=1.0) == pytest.approx(0.70711, abs=1e-5)

    def test_quantile_inverts_cdf(self):
        for u in [0.01, 0.25, 0.5, 0.9, 0.999]:
            assert levy_gauss_cdf(levy_gauss_quantile(u)) == pytest.approx(u, abs=1e-12)

    def test_quantile_symmetry(self):
        for u in [0.6, 0.9, 0.99]:
            assert levy_gauss_quantile(u) == pytest.approx(-levy_gauss_quantile(1 - u), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        u=st.lists(st.floats(2.0**-53, 1 - 2.0**-53), min_size=1, max_size=50),
        sigma=st.floats(1e-3, 1e3),
    )
    def test_quantile_is_the_closed_form_and_keeps_its_argument(self, u, sigma):
        # the in-place formula gives the bits of the expression it replaced
        arg = np.array(u)
        expected = (sigma / np.sqrt(2.0)) * np.tan(np.pi * (arg - 0.5))
        assert levy_gauss_quantile(arg, sigma).tobytes() == expected.tobytes()
        assert arg.tolist() == u

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 3.0])
    def test_law_is_cauchy_of_scale_sigma_over_root_2(self, sigma):
        cauchy = stats.cauchy(scale=sigma / np.sqrt(2.0))
        x = np.linspace(-50.0, 50.0, 401) * sigma
        u = np.linspace(0.001, 0.999, 401)
        np.testing.assert_allclose(levy_gauss_pdf(x, sigma), cauchy.pdf(x), rtol=1e-13)
        np.testing.assert_allclose(levy_gauss_cdf(x, sigma), cauchy.cdf(x), rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(
            levy_gauss_quantile(u, sigma), cauchy.ppf(u), rtol=1e-12, atol=1e-15 * sigma
        )

    def test_quantile_domain_checks(self):
        with pytest.raises(InvalidInputError):
            levy_gauss_quantile(0.0)
        with pytest.raises(InvalidInputError):
            levy_gauss_quantile(1.0)
        with pytest.raises(InvalidInputError):
            levy_gauss_quantile(0.5, sigma=0.0)


class TestNoiseSpec:
    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidInputError):
            NoiseSpec(family="pink")

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(InvalidInputError):
            NoiseSpec(family="gaussian", sigma=0.0)

    def test_negative_bound_rejected(self):
        with pytest.raises(InvalidInputError):
            NoiseSpec(family="bounded-uniform", epsilon_bound=-1.0)

    @pytest.mark.parametrize(
        "family, field, value",
        [
            ("levy-gauss", "sigma", float("nan")),  # drew NaN
            ("gaussian", "sigma", float("inf")),  # drew +-inf
            ("bounded-uniform", "epsilon_bound", float("nan")),  # drew NaN
            ("levy-gauss", "epsilon_bound", float("nan")),  # skipped truncation
            ("bounded-uniform", "epsilon_bound", float("inf")),  # drew +-inf
            ("gaussian", "sigma", True),  # ran as sigma = 1
            ("none", "sigma", "1"),
        ],
    )
    def test_non_number_nan_or_infinite_field_rejected(self, family, field, value):
        with pytest.raises(InvalidInputError, match=f"^{field} must be a finite number"):
            NoiseSpec(family=family, **{field: value})

    @pytest.mark.parametrize("family", ["bounded-uniform", "none"])
    def test_sigma_zero_accepted_by_families_that_do_not_read_it(self, family):
        assert NoiseSpec(family=family, sigma=0.0).sigma == 0.0


class TestSampling:
    def test_none_family_is_zero(self):
        draws = sample_noise_flat(NoiseSpec(family="none"), 24, CounterRng(0))
        np.testing.assert_array_equal(draws, np.zeros(24))

    def test_bounded_uniform_zero_eps_is_zero(self):
        spec = NoiseSpec(family="bounded-uniform", epsilon_bound=0.0)
        draws = sample_noise_flat(spec, 16, CounterRng(0))
        np.testing.assert_array_equal(draws, np.zeros(16))

    def test_bounded_uniform_within_bounds(self):
        spec = NoiseSpec(family="bounded-uniform", epsilon_bound=0.3)
        draws = sample_noise_flat(spec, 10**5, CounterRng(1), 1)
        assert np.all(np.abs(draws) <= 0.3)

    def test_truncated_levy_gauss_within_bounds(self):
        spec = NoiseSpec(family="levy-gauss", sigma=1.0, epsilon_bound=0.5)
        draws = sample_noise_flat(spec, 10**5, CounterRng(2), 1)
        assert np.all(np.abs(draws) <= 0.5)

    def test_untruncated_ks_statistic(self):
        spec = NoiseSpec(family="levy-gauss", sigma=1.0, epsilon_bound=0.0)
        draws = sample_noise_flat(spec, 10**6, CounterRng(3), 1)
        ks = stats.kstest(draws, levy_gauss_cdf).statistic
        assert ks < 0.002

    def test_determinism(self):
        spec = NoiseSpec(family="levy-gauss", sigma=0.7, epsilon_bound=2.0)
        a = sample_noise_flat(spec, 96, CounterRng(5))
        b = sample_noise_flat(spec, 96, CounterRng(5))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("family", ["levy-gauss", "bounded-uniform", "gaussian", "none"])
    def test_negative_count_rejected(self, family):
        spec = NoiseSpec(family=family, sigma=1.0, epsilon_bound=1.0)
        with pytest.raises(InvalidInputError, match="count must be non-negative"):
            sample_noise_flat(spec, -1, CounterRng(5))

    def test_offset_chunks_match(self):
        spec = NoiseSpec(family="levy-gauss", sigma=1.0, epsilon_bound=1.5)
        rng = CounterRng(6)
        whole = sample_noise_flat(spec, 200, rng, 9)
        parts = np.concatenate(
            [sample_noise_flat(spec, 80, rng, 9, offset=0), sample_noise_flat(spec, 120, rng, 9, offset=80)]
        )
        np.testing.assert_array_equal(whole, parts)

    @pytest.mark.parametrize(
        "spec",
        [
            NoiseSpec(family="gaussian", sigma=1.0),
            NoiseSpec(family="bounded-uniform", epsilon_bound=1.0),
            NoiseSpec(family="levy-gauss", sigma=1.0, epsilon_bound=3.0),
        ],
    )
    def test_symmetry_of_mean(self, spec):
        draws = sample_noise_flat(spec, 10**6, CounterRng(7), 1)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean()) < 4 * se


class TestHelpers:
    def test_proxy_values(self):
        assert subgaussian_proxy_of_bound(0.0) == 0.0
        assert subgaussian_proxy_of_bound(0.1) == pytest.approx(0.02, abs=1e-15)
        assert subgaussian_proxy_of_bound(1.0) == 2.0

    def test_proxy_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            subgaussian_proxy_of_bound(-0.5)

    def test_truncated_default_sigma(self):
        spec = truncated_levy_gauss(0.3)
        assert spec.family == "levy-gauss"
        assert spec.epsilon_bound == 0.3
        assert spec.sigma == pytest.approx(0.1, abs=1e-15)

    def test_truncated_zero_eps_degrades_to_none(self):
        assert truncated_levy_gauss(0.0).family == "none"

    def test_truncated_negative_eps_names_epsilon(self):
        with pytest.raises(InvalidInputError, match="epsilon must be non-negative"):
            truncated_levy_gauss(-1.0)


def _full_block_levy_gauss(rng, count, sigma, eps, stream, offset):
    """Reference truncated sampler: every retry redraws the whole block and
    keeps the fresh values where the current ones are out of bounds."""
    out = levy_gauss_quantile(rng.uniform(count, *stream, 0, offset=offset), sigma)
    for retry in range(1, _MAX_RETRIES + 1):
        bad = np.abs(out) > eps
        if not bad.any():
            return out
        fresh = levy_gauss_quantile(rng.uniform(count, *stream, retry, offset=offset), sigma)
        out = np.where(bad, fresh, out)
    return np.clip(out, -eps, eps)


# eps / sigma from 1e-9 (every entry reaches the retry clip) to 30 (no retry)
_truncated = dict(
    seed=st.integers(0, 2**32),
    count=st.integers(1, 3000),
    offset=st.integers(0, 2**48),
    sigma=st.floats(0.05, 5.0),
    eps_over_sigma=st.sampled_from([1e-9, 1e-3, 0.1, 1.0, 3.0, 30.0]),
)


class TestTruncatedRedraw:
    @settings(max_examples=60, deadline=None)
    @given(**_truncated)
    def test_subset_redraw_matches_full_block(self, seed, count, offset, sigma, eps_over_sigma):
        eps = eps_over_sigma * sigma
        rng = CounterRng(seed)
        spec = NoiseSpec(family="levy-gauss", sigma=sigma, epsilon_bound=eps)
        got = sample_noise_flat(spec, count, rng, 2, 7, offset=offset)
        want = _full_block_levy_gauss(rng, count, sigma, eps, (2, 7), offset)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(split=st.floats(0.0, 1.0), **_truncated)
    def test_split_draw_matches_whole(self, split, seed, count, offset, sigma, eps_over_sigma):
        spec = NoiseSpec(family="levy-gauss", sigma=sigma, epsilon_bound=eps_over_sigma * sigma)
        rng = CounterRng(seed)
        k = int(split * count)
        whole = sample_noise_flat(spec, count, rng, 3, offset=offset)
        parts = np.concatenate(
            [
                sample_noise_flat(spec, k, rng, 3, offset=offset),
                sample_noise_flat(spec, count - k, rng, 3, offset=offset + k),
            ]
        )
        assert whole.tobytes() == parts.tobytes()
