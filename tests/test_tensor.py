"""Tests for the rank-4 input validator and channel-wise reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinbn.tensor import (
    InvalidInputError,
    Tensor4,
    channel_moments,
)


def _rand(dims, seed=0):
    return np.random.default_rng(seed).normal(size=dims)


class TestTensor4:
    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidInputError):
            Tensor4(np.zeros((2, 3)))

    def test_rejects_nan_and_inf(self):
        bad = np.zeros((1, 1, 2, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            Tensor4(bad)
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(InvalidInputError):
            Tensor4(bad)

    def test_rejects_zero_dim(self):
        with pytest.raises(InvalidInputError):
            Tensor4(np.zeros((2, 0, 2, 2)))

    def test_immutable(self):
        t = Tensor4(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0, 0, 0] = 1.0


class TestChannelMoments:
    def test_constant_tensor(self):
        stats = channel_moments(np.full((2, 3, 2, 2), 5.0))
        np.testing.assert_array_equal(stats.mean, [5.0, 5.0, 5.0])
        np.testing.assert_array_equal(stats.var, [0.0, 0.0, 0.0])
        assert stats.count == 8

    def test_two_point_channel(self):
        # channel holding {1, 3} repeated: mean 2, population variance 1
        x = np.empty((2, 1, 1, 2))
        x[..., 0], x[..., 1] = 1.0, 3.0
        stats = channel_moments(x)
        assert stats.mean[0] == pytest.approx(2.0, abs=0)
        assert stats.var[0] == pytest.approx(1.0, abs=0)

    def test_matches_two_pass_reference(self):
        x = _rand((4, 2, 3, 3), seed=3)
        stats = channel_moments(x)
        for c in range(2):
            flat = x[:, c].ravel()
            mean = sum(flat) / flat.size
            var = sum((v - mean) ** 2 for v in flat) / flat.size
            assert stats.mean[c] == pytest.approx(mean, abs=1e-12)
            assert stats.var[c] == pytest.approx(var, abs=1e-12)

    def test_single_sample_rejected(self):
        with pytest.raises(InvalidInputError):
            channel_moments(np.zeros((1, 3, 1, 1)))

    def test_permutation_invariance(self):
        x = _rand((3, 2, 2, 2), seed=4)
        stats = channel_moments(x)
        perm = channel_moments(x[::-1].copy())
        np.testing.assert_allclose(perm.mean, stats.mean, atol=1e-12)
        np.testing.assert_allclose(perm.var, stats.var, atol=1e-12)

    @given(a=st.floats(-3, 3).filter(lambda v: abs(v) > 1e-3), b=st.floats(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, a, b):
        x = _rand((2, 3, 2, 2), seed=5)
        base = channel_moments(x)
        scaled = channel_moments(a * x + b)
        np.testing.assert_allclose(scaled.mean, a * base.mean + b, atol=1e-10)
        np.testing.assert_allclose(scaled.var, a**2 * base.var, atol=1e-10)
