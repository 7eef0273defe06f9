"""Forward/backward tests for the six batch-norm variants.

The gradient oracle uses central finite differences of a forward pass that
keeps the per-batch correction coefficients frozen at the base point — the
same stop-gradient convention the analytic backward implements.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinbn.batchnorm import (
    BNLayer,
    BNMode,
    BNVariant,
    bn_backward,
    bn_forward,
    correction_coefficients,
)
from steinbn.estimators import VAR_FLOOR
from steinbn.nn import BatchNorm
from steinbn.tensor import ChannelStats, InvalidInputError, channel_moments

VARIANTS = ["standard", "stein", "mean-only", "khoshsirat", "lasso", "ridge"]


def make_layer(variant, c=4, **kw):
    return BNLayer(num_channels=c, variant=variant, **kw)


def rand_batch(dims, seed):
    return np.random.default_rng(seed).normal(size=dims)


def frozen_forward(x_arr, layer, cache):
    """Forward pass with the correction coefficients frozen from `cache`."""
    stats = channel_moments(x_arr)
    corr = cache.correction
    mean = corr.mean_coef * stats.mean + corr.mean_offset
    var = np.maximum(corr.var_coef * stats.var + corr.var_offset, VAR_FLOOR)
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    xhat = (x_arr - mean[None, :, None, None]) * inv_std[None, :, None, None]
    return layer.gamma[None, :, None, None] * xhat + layer.beta[None, :, None, None]


class TestForward:
    def test_standard_constant_gives_beta(self):
        layer = make_layer("standard", c=2, beta=np.array([3.0, -1.0]))
        x = np.full((2, 2, 2, 2), 9.0)
        y, _ = bn_forward(layer, x)
        np.testing.assert_allclose(y[:, 0], 3.0, atol=1e-12)
        np.testing.assert_allclose(y[:, 1], -1.0, atol=1e-12)

    def test_standard_output_standardized(self):
        layer = make_layer("standard", c=4, eps=1e-12)
        y, _ = bn_forward(layer, rand_batch((3, 4, 3, 3), seed=0))
        stats = channel_moments(y)
        np.testing.assert_allclose(stats.mean, 0.0, atol=1e-8)
        np.testing.assert_allclose(stats.var, 1.0, rtol=1e-8)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            bn_forward(make_layer("standard", c=3), rand_batch((2, 4, 2, 2), seed=1))

    def test_stein_small_c_degrades_mean_only(self):
        layer = make_layer("stein", c=2)
        x = rand_batch((3, 2, 2, 2), seed=2)
        _, cache = bn_forward(layer, x)
        assert cache.correction.mean_degraded
        assert cache.correction.shrink_factor_mean == 1.0
        # variance correction still applies
        assert not np.allclose(cache.corrected_var, cache.raw.var)

    def test_stein_vs_standard_zero_dispersion_c0(self):
        # equal channel means and variances, c=0: outputs differ only through
        # the n/(n+1) variance factor
        rng = np.random.default_rng(3)
        base = rng.normal(size=(4, 1, 2, 2))
        x = np.repeat(base, 3, axis=1)
        std_layer = make_layer("standard", c=3, eps=1e-9)
        stein_layer = make_layer("stein", c=3, c_tilde=0.0, eps=1e-9)
        y_std, cache_std = bn_forward(std_layer, x)
        y_st, cache_st = bn_forward(stein_layer, x)
        n = cache_std.raw.count
        np.testing.assert_allclose(cache_st.corrected_mean, cache_std.corrected_mean, atol=1e-12)
        np.testing.assert_allclose(
            cache_st.corrected_var, n / (n + 1.0) * cache_std.corrected_var, rtol=1e-12
        )
        expected = y_std * np.sqrt(
            (cache_std.corrected_var[0] + 1e-9) / (cache_st.corrected_var[0] + 1e-9)
        )
        np.testing.assert_allclose(y_st, expected, rtol=1e-9)

    def test_lasso_ridge_zero_lambda_equal_standard(self):
        x = rand_batch((2, 4, 3, 3), seed=4)
        y_std, _ = bn_forward(make_layer("standard"), x)
        for variant in ("lasso", "ridge"):
            y, _ = bn_forward(make_layer(variant, lam=0.0), x)
            np.testing.assert_allclose(y, y_std, atol=1e-12)

    def test_eval_mode_affine_in_running_stats(self):
        layer = make_layer("stein", c=2, mode="eval")
        layer.running_mean = np.array([1.0, -2.0])
        layer.running_var = np.array([4.0, 0.25])
        x = rand_batch((2, 2, 2, 2), seed=5)
        y, cache = bn_forward(layer, x)
        a = layer.gamma / np.sqrt(layer.running_var + layer.eps)
        b = layer.beta - a * layer.running_mean
        np.testing.assert_allclose(
            y, a[None, :, None, None] * x + b[None, :, None, None], atol=1e-12
        )
        # eval is the correction coef 0, offset = running stats
        np.testing.assert_array_equal(cache.correction.mean_coef, 0.0)
        np.testing.assert_array_equal(cache.correction.var_coef, 0.0)
        np.testing.assert_array_equal(cache.corrected_mean, layer.running_mean)

    def test_eval_unit_standardized_value(self):
        layer = make_layer("standard", c=2, eps=1e-3, mode="eval")
        layer.running_mean = np.array([2.0, -1.0])
        layer.running_var = np.array([4.0, 9.0])
        shift = layer.running_mean + np.sqrt(layer.running_var + layer.eps)
        x = np.broadcast_to(shift[None, :, None, None], (1, 2, 2, 2)).copy()
        y, _ = bn_forward(layer, x)
        np.testing.assert_allclose(y, 1.0, atol=1e-12)

    def test_eval_mode_does_not_touch_running_stats(self):
        layer = make_layer("standard", c=2, mode="eval")
        before = layer.running_mean.copy(), layer.running_var.copy()
        bn_forward(layer, rand_batch((2, 2, 2, 2), seed=6))
        np.testing.assert_array_equal(layer.running_mean, before[0])
        np.testing.assert_array_equal(layer.running_var, before[1])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_eval_with_the_batch_statistics_is_the_train_forward(self, variant):
        # one output path for both modes: an eval layer whose running
        # statistics are a train batch's corrected ones returns the same bytes
        rng = np.random.default_rng(21)
        x = rng.normal(size=(5, 4, 3, 3)) * np.array([0.5, 1.0, 2.0, 4.0])[None, :, None, None]
        affine = dict(lam=0.05, gamma=rng.normal(size=4) + 1.5, beta=rng.normal(size=4))
        y_train, cache = bn_forward(make_layer(variant, **affine), x)
        layer = make_layer(
            variant, running_mean=cache.corrected_mean, running_var=cache.corrected_var,
            mode="eval", **affine
        )
        y_eval, _ = bn_forward(layer, x)
        assert y_eval.tobytes() == y_train.tobytes()

    def test_train_mode_stores_corrected_running_stats(self):
        layer = make_layer("stein", c=4, momentum=1.0)
        x = rand_batch((3, 4, 2, 2), seed=7)
        _, cache = bn_forward(layer, x)
        np.testing.assert_allclose(layer.running_mean, cache.corrected_mean, atol=1e-12)
        np.testing.assert_allclose(layer.running_var, cache.corrected_var, atol=1e-12)


class TestCorrectionCoefficients:
    def test_standard_is_identity(self):
        stats = ChannelStats(np.array([1.0, 2.0]), np.array([1.0, 2.0]), count=8)
        mc, mo, vc, vo, s, deg = correction_coefficients(make_layer("standard", c=2), stats)
        np.testing.assert_array_equal(mc, 1.0)
        np.testing.assert_array_equal(mo, 0.0)
        np.testing.assert_array_equal(vc, 1.0)
        np.testing.assert_array_equal(vo, 0.0)
        assert s == 1.0 and not deg

    def test_lasso_soft_threshold_encoding(self):
        layer = make_layer("lasso", c=3, lam=2.0)
        stats = ChannelStats(np.array([1.0, -0.05, 0.5]), np.array([2.0, 0.5, 3.0]), count=10)
        mc, mo, vc, vo, _, _ = correction_coefficients(layer, stats)
        thr = 2.0 / (2.0 * 10)  # lam/(2n) = 0.1
        corrected = mc * stats.mean + mo
        assert corrected[0] == pytest.approx(1.0 - thr)
        assert corrected[1] == 0.0  # |mean| below threshold
        assert corrected[2] == pytest.approx(0.5 - thr)
        corrected_var = vc * stats.var + vo
        np.testing.assert_allclose(corrected_var, [1.0, VAR_FLOOR, 2.0], atol=1e-15)

    def test_ridge_encoding(self):
        layer = make_layer("ridge", c=2, lam=3.0)
        stats = ChannelStats(np.array([2.0, -4.0]), np.array([1.0, 2.0]), count=6)
        mc, mo, vc, vo, _, _ = correction_coefficients(layer, stats)
        np.testing.assert_allclose(mc * stats.mean + mo, [12.0 / 9.0, -24.0 / 9.0], atol=1e-12)
        np.testing.assert_allclose(vc * stats.var + vo, [0.25, 0.5], atol=1e-12)


class TestBackward:
    def test_zero_grad_out(self):
        layer = make_layer("stein")
        x = rand_batch((2, 4, 2, 2), seed=8)
        _, cache = bn_forward(layer, x)
        gin, ggamma, gbeta = bn_backward(layer, cache, np.zeros(x.shape))
        np.testing.assert_array_equal(gin, 0.0)
        np.testing.assert_array_equal(ggamma, 0.0)
        np.testing.assert_array_equal(gbeta, 0.0)

    def test_grad_beta_is_channel_sum(self):
        for variant in VARIANTS:
            layer = make_layer(variant, lam=0.01)
            x = rand_batch((2, 4, 2, 2), seed=9)
            g = rand_batch((2, 4, 2, 2), seed=10)
            _, cache = bn_forward(layer, x)
            _, _, gbeta = bn_backward(layer, cache, g)
            np.testing.assert_allclose(gbeta, g.sum(axis=(0, 2, 3)), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        layer = make_layer("standard")
        _, cache = bn_forward(layer, rand_batch((2, 4, 2, 2), seed=11))
        with pytest.raises(InvalidInputError):
            bn_backward(layer, cache, np.zeros((2, 4, 3, 3)))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_finite_difference_input_gradient(self, variant):
        rng = np.random.default_rng(12)
        layer = make_layer(
            variant,
            gamma=rng.normal(size=4) + 1.5,
            beta=rng.normal(size=4),
            lam=0.02,
        )
        x_arr = rng.normal(size=(2, 4, 3, 3))
        g = rng.normal(size=(2, 4, 3, 3))
        _, cache = bn_forward(layer, x_arr)
        gin, _, _ = bn_backward(layer, cache, g)

        step = 1e-5
        fd = np.zeros_like(x_arr)
        it = np.nditer(x_arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            plus, minus = x_arr.copy(), x_arr.copy()
            plus[idx] += step
            minus[idx] -= step
            lp = float((g * frozen_forward(plus, layer, cache)).sum())
            lm = float((g * frozen_forward(minus, layer, cache)).sum())
            fd[idx] = (lp - lm) / (2 * step)
            it.iternext()
        denom = max(np.abs(fd).max(), 1e-8)
        assert np.abs(gin - fd).max() / denom < 1e-6

    @staticmethod
    def fd_gradient_error(layer, x_arr, g):
        """Max relative gap between the analytic input gradient and central
        differences of the frozen-correction forward."""
        _, cache = bn_forward(layer, x_arr)
        gin, _, _ = bn_backward(layer, cache, g)
        step = 1e-5
        fd = np.zeros_like(x_arr)
        for idx in np.ndindex(x_arr.shape):
            plus, minus = x_arr.copy(), x_arr.copy()
            plus[idx] += step
            minus[idx] -= step
            lp = float((g * frozen_forward(plus, layer, cache)).sum())
            lm = float((g * frozen_forward(minus, layer, cache)).sum())
            fd[idx] = (lp - lm) / (2 * step)
        return np.abs(gin - fd).max() / max(np.abs(fd).max(), 1e-8)

    @given(
        variant=st.sampled_from(VARIANTS),
        c=st.integers(1, 5),
        const_channel=st.booleans(),
        spread=st.floats(0.01, 30.0),
        mode=st.sampled_from(["train", "eval"]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_finite_difference_on_degenerate_batches(
        self, variant, c, const_channel, spread, mode, seed
    ):
        # C < 3 degrades the JS factor; a constant channel has zero variance;
        # a large lam together with dispersed channel scales clamps Lasso means
        # and variances, and strongly dispersed variances clamp Khoshsirat
        rng = np.random.default_rng(seed)
        scales = spread ** np.linspace(-1.0, 1.0, c)
        x_arr = rng.normal(size=(2, c, 2, 3)) * scales[None, :, None, None]
        if const_channel:
            x_arr[:, 0] = 0.3
        layer = make_layer(
            variant, c=c, lam=0.5, gamma=rng.normal(size=c) + 1.5, beta=rng.normal(size=c)
        )
        if mode == "eval":
            layer.running_mean = rng.normal(size=c)
            layer.running_var = rng.uniform(0.1, 3.0, size=c)
            layer.mode = BNMode.EVAL
        g = rng.normal(size=x_arr.shape)
        assert self.fd_gradient_error(layer, x_arr, g) < 1e-6

    @pytest.mark.parametrize("variant", ["lasso", "khoshsirat"])
    def test_clamped_channels_finite_difference(self, variant):
        x_arr = np.random.default_rng(16).normal(size=(2, 4, 2, 3))
        x_arr *= np.array([1.0, 1.0, 4.0, 1e-3])[None, :, None, None]
        x_arr[:, 0] = 0.3  # zero variance: clamped by both rules
        layer = make_layer(variant, lam=0.5)
        _, cache = bn_forward(layer, x_arr)
        # some but not all channels are clamped
        assert 0 < np.count_nonzero(cache.correction.var_coef == 0.0) < 4
        g = np.random.default_rng(17).normal(size=x_arr.shape)
        assert self.fd_gradient_error(make_layer(variant, lam=0.5), x_arr, g) < 1e-6

    def test_eval_mode_backward_is_diagonal(self):
        layer = make_layer("standard", c=2, mode="eval")
        layer.running_var = np.array([4.0, 1.0])
        x = rand_batch((2, 2, 2, 2), seed=13)
        g = rand_batch((2, 2, 2, 2), seed=14)
        _, cache = bn_forward(layer, x)
        gin, _, _ = bn_backward(layer, cache, g)
        expected = g * (layer.gamma / np.sqrt(layer.running_var + layer.eps))[None, :, None, None]
        np.testing.assert_allclose(gin, expected, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_train_forward_keeps_no_activation_but_its_input(self, variant):
        # the backward recomputes the centred and normalized input, so of the
        # arrays the layer keeps, only x itself is activation-sized
        layer = BatchNorm(4, variant, lam=0.05)
        x = rand_batch((3, 4, 2, 2), seed=22)
        layer.forward(x)
        cache = layer._kept()
        kept = [getattr(cache, f.name) for f in dataclasses.fields(cache)]
        kept += [v for part in kept if isinstance(part, tuple) for v in part]
        shaped = [v for v in kept if isinstance(v, np.ndarray) and v.shape == x.shape]
        assert len(shaped) == 1 and shaped[0] is x


class TestRunningStats:
    def test_momentum_one_replaces(self):
        x = rand_batch((3, 4, 2, 2), seed=18)
        for variant in VARIANTS:
            layer = make_layer(variant, momentum=1.0, lam=0.05)
            _, cache = bn_forward(layer, x)
            np.testing.assert_array_equal(layer.running_mean, cache.corrected_mean)
            np.testing.assert_array_equal(layer.running_var, cache.corrected_var)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(InvalidInputError):
            make_layer("standard", eps=0.0)

    def test_momentum_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            make_layer("standard", momentum=0.0)

    def test_ema_converges_monotonically(self):
        # the same batch every step, with mean 10 and variance 4
        layer = make_layer("standard", c=1, momentum=0.5)
        x = np.array([8.0, 12.0]).reshape(2, 1, 1, 1)
        gaps = []
        for _ in range(5):
            bn_forward(layer, x)
            gaps.append((abs(layer.running_mean[0] - 10.0), abs(layer.running_var[0] - 4.0)))
        for (m0, v0), (m1, v1) in zip(gaps, gaps[1:]):
            assert m1 < m0 and v1 < v0


class TestLayerState:
    def test_state_roundtrip(self):
        # state is loaded through the layer stack's BN, which is a BNLayer
        layer = BatchNorm(num_channels=3, variant="stein")
        bn_forward(layer, rand_batch((2, 3, 2, 2), seed=15))
        other = BatchNorm(num_channels=3, variant="stein")
        other.load_state_arrays(layer.state_arrays())
        np.testing.assert_array_equal(other.running_mean, layer.running_mean)
        np.testing.assert_array_equal(other.running_var, layer.running_var)

    def test_variant_enum_coercion(self):
        assert make_layer("mean-only").variant is BNVariant.MEAN_ONLY
        with pytest.raises(ValueError):
            make_layer("bogus")


# Golden outputs: sha256 over every case of a variant, recorded while the BN
# core still wrapped its inputs and outputs in Tensor4. Each case hashes the
# output, the corrected statistics, the correction, the running statistics
# and the three gradients, with -0.0 folded to +0.0, so any refactor of the
# core must reproduce the forward and backward passes bit for bit.
_GOLDEN_BN_SHA256 = {
    "standard": "ddf447ba578ead07d6fde18f0648bc0c21ae6200b3c07de19e2aeca43cb9d49e",
    "stein": "c12fe41d499ce40bb68e24ad3d0899f7bae2a442849a67d71f35c635f721577f",
    "mean-only": "60619883ebfd13a23ab1761b2e6b66c0f9b7b73fc5e3e3707798ff92f0968c1e",
    "khoshsirat": "3de458ae1de4104fddc40583dda769591898927319c6246226d046a0a77dbc6b",
    "lasso": "8579f5a46ec0510fcb2cb5f731e397feb43d6e9f47370f710f3c8af9f2ad2477",
    "ridge": "a1bac4293fbc3438efded3f054a0894acb1315f92da53a752a758caee8ab7714",
}


def _golden_bn_cases(variant):
    rng = np.random.default_rng(2024)
    scales = np.array([0.5, 1.0, 2.0, 4.0])[None, :, None, None]
    random_batch = rng.normal(size=(3, 4, 2, 3)) * scales
    const_channel = random_batch.copy()
    const_channel[:, 1] = -0.7
    two_channels = rng.normal(size=(4, 2, 3, 2)) + 1.5
    for x_arr in (random_batch, const_channel, two_channels):
        c = x_arr.shape[1]
        for mode in ("train", "eval"):
            layer = make_layer(
                variant, c=c, lam=0.05, gamma=rng.normal(size=c) + 1.5, beta=rng.normal(size=c)
            )
            if mode == "eval":
                layer.running_mean = rng.normal(size=c)
                layer.running_var = rng.uniform(0.1, 3.0, size=c)
                layer.mode = BNMode.EVAL
            yield layer, x_arr, rng.normal(size=x_arr.shape)


@pytest.mark.parametrize("variant", VARIANTS)
def test_golden_digest(variant):
    digest = hashlib.sha256()
    for layer, x_arr, g in _golden_bn_cases(variant):
        y, cache = bn_forward(layer, x_arr)
        gin, ggamma, gbeta = bn_backward(layer, cache, g)
        corr = cache.correction
        parts = (
            y, cache.corrected_mean, cache.corrected_var, corr.mean_coef, corr.mean_offset,
            corr.var_coef, corr.var_offset, [corr.shrink_factor_mean, float(corr.mean_degraded)],
            layer.running_mean, layer.running_var, gin, ggamma, gbeta,
        )
        for part in parts:
            digest.update((np.asarray(part, dtype=np.float64) + 0.0).tobytes())
    assert digest.hexdigest() == _GOLDEN_BN_SHA256[variant]
