"""Batch normalization variants over (N, C, H, W) float64 arrays.

Six variants share one forward/backward skeleton: raw channel moments are
corrected by a per-channel affine map ``corrected = coef * raw + offset``
(a ``Correction``, frozen per batch), then the usual normalize-and-affine
step is applied. Each variant is one rule from the batch statistics
``(mean, var, n)`` to its Correction, built from the coefficient rules in
``estimators``. Eval mode is a Correction too: coefficients 0 and offsets
equal to the running statistics, applied to zero raw statistics, so train
and eval share one forward: it centres, scales and shifts one copy of the
input into the output, and only the running-statistics update, an EMA of the
corrected statistics taken inside ``bn_forward``, is train-only.
The forward cache holds the input and per-channel vectors; the backward
recomputes the centred and normalized input from them. It treats the frozen
coefficients as constants of the batch, so gradients flow through the raw
moments exactly as in standard BN; with zero coefficients it reduces to the
diagonal ``gamma * inv_std``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .estimators import (
    VAR_FLOOR,
    js_mean_factor,
    khoshsirat_variance_coefficients,
    lasso_mean_coefficients,
    lasso_variance_coefficients,
    ridge_mean,
    ridge_variance,
    stein_variance_coefficients,
    variance_c_bound,
)
from .tensor import ChannelStats, InvalidInputError, channel_moments


class BNVariant(str, Enum):
    STANDARD = "standard"
    STEIN = "stein"
    MEAN_ONLY = "mean-only"
    KHOSHSIRAT = "khoshsirat"
    LASSO = "lasso"
    RIDGE = "ridge"


class BNMode(str, Enum):
    TRAIN = "train"
    EVAL = "eval"


@dataclass
class BNLayer:
    """State of one batch-norm layer.

    c_tilde=None selects the midpoint of the classical admissible interval
    for the current (n, C) at every forward call. lam is the shared Lasso/
    Ridge penalty. Running statistics store the CORRECTED statistics so
    eval mode inherits the shrinkage; only a train-mode ``bn_forward`` changes
    them. ``BNLayer(..., mode="eval")`` builds an eval-mode layer.
    """

    num_channels: int
    variant: BNVariant = BNVariant.STANDARD
    momentum: float = 0.1
    eps: float = 1e-5
    c_tilde: float | None = None
    lam: float = 0.0
    mode: BNMode = BNMode.TRAIN
    gamma: np.ndarray = field(default=None)
    beta: np.ndarray = field(default=None)
    running_mean: np.ndarray = field(default=None)
    running_var: np.ndarray = field(default=None)

    def __post_init__(self):
        if not (0.0 < self.momentum <= 1.0):
            raise InvalidInputError("momentum must lie in (0, 1]")
        if self.eps <= 0:
            raise InvalidInputError("eps must be positive")
        if self.lam < 0:
            raise InvalidInputError("lambda must be non-negative")
        self.variant = BNVariant(self.variant)
        self.mode = BNMode(self.mode)
        c = self.num_channels
        if self.gamma is None:
            self.gamma = np.ones(c)
        if self.beta is None:
            self.beta = np.zeros(c)
        if self.running_mean is None:
            self.running_mean = np.zeros(c)
        if self.running_var is None:
            self.running_var = np.ones(c)
        for name in ("gamma", "beta", "running_mean", "running_var"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            if v.shape != (c,):
                raise InvalidInputError(f"{name} must have length C={c}")
            setattr(self, name, v)
        if np.any(self.running_var < 0):
            raise InvalidInputError("running_var entries must be non-negative")

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "gamma": self.gamma,
            "beta": self.beta,
            "running_mean": self.running_mean,
            "running_var": self.running_var,
        }


class Correction(NamedTuple):
    """Frozen per-channel affine correction: corrected = coef * raw + offset.

    Carries the scalar James-Stein mean factor and its degraded flag (C < 3
    or a zero mean vector) alongside.
    """

    mean_coef: np.ndarray
    mean_offset: np.ndarray
    var_coef: np.ndarray
    var_offset: np.ndarray
    shrink_factor_mean: float = 1.0
    mean_degraded: bool = False


@dataclass
class BNForwardCache:
    """Everything the backward pass needs: the input and per-channel vectors,
    with the forward's exact inv_std. The forward scales and shifts its
    centred copy of x in place into the output, so the backward recomputes
    ``x - corrected_mean`` and its normalized form with the same operations.
    """

    raw: ChannelStats
    correction: Correction
    corrected_mean: np.ndarray
    corrected_var: np.ndarray
    inv_std: np.ndarray
    x: np.ndarray


def _auto_c(layer: BNLayer, n: int, p: int) -> float:
    if layer.c_tilde is not None:
        return layer.c_tilde
    if p < 2:
        return 0.0
    return 0.5 * variance_c_bound(n, p)


def correction_coefficients(layer: BNLayer, stats: ChannelStats) -> Correction:
    """The frozen correction of one batch's statistics (mean, var, n), with one
    rule per variant; the formulas are the estimators' coefficient rules."""
    mean, var, n, lam, variant = stats.mean, stats.var, stats.count, layer.lam, layer.variant
    mean_coef, mean_offset, var_coef, var_offset = 1.0, 0.0, 1.0, 0.0
    s_mean, degraded = 1.0, False
    if variant in (BNVariant.STEIN, BNVariant.MEAN_ONLY, BNVariant.KHOSHSIRAT):
        s_mean, degraded = js_mean_factor(mean)
        mean_coef = s_mean
    if variant == BNVariant.STEIN:
        var_coef, var_offset = stein_variance_coefficients(var, n, _auto_c(layer, n, mean.size))
    elif variant == BNVariant.KHOSHSIRAT:
        var_coef, var_offset = khoshsirat_variance_coefficients(var)
    elif variant == BNVariant.LASSO:
        mean_coef, mean_offset = lasso_mean_coefficients(mean, n, lam)
        var_coef, var_offset = lasso_variance_coefficients(var, lam)
    elif variant == BNVariant.RIDGE:
        # ridge is linear: its coefficient is its estimate at a unit statistic
        mean_coef, var_coef = ridge_mean(n, n, lam), ridge_variance(1.0, lam)
    coefs = (mean_coef, mean_offset, var_coef, var_offset)
    return Correction(*(np.full(mean.size, v, dtype=np.float64) for v in coefs), s_mean, degraded)


def bn_forward(layer: BNLayer, x: np.ndarray) -> tuple[np.ndarray, BNForwardCache]:
    """Normalize x; in train mode also update the running statistics."""
    n, c, h, w = x.shape
    if c != layer.num_channels:
        raise InvalidInputError(f"layer has C={layer.num_channels}, input has C={c}")

    training = layer.mode == BNMode.TRAIN
    if training:
        raw = channel_moments(x)
        corr = correction_coefficients(layer, raw)
    else:
        zeros = np.zeros(c)
        raw = ChannelStats(zeros, zeros, n * h * w)
        corr = Correction(zeros, layer.running_mean, zeros, layer.running_var)
    corrected_mean = corr.mean_coef * raw.mean + corr.mean_offset
    corrected_var = np.maximum(corr.var_coef * raw.var + corr.var_offset, VAR_FLOOR)
    inv_std = 1.0 / np.sqrt(corrected_var + layer.eps)

    if training:
        mom = layer.momentum
        layer.running_mean = (1.0 - mom) * layer.running_mean + mom * corrected_mean
        layer.running_var = (1.0 - mom) * layer.running_var + mom * corrected_var
    # the centred copy becomes the output; the backward recomputes it from x
    y = x - corrected_mean[None, :, None, None]
    y *= inv_std[None, :, None, None]
    y *= layer.gamma[None, :, None, None]
    y += layer.beta[None, :, None, None]
    return y, BNForwardCache(raw, corr, corrected_mean, corrected_var, inv_std, x)


def bn_backward(
    layer: BNLayer, cache: BNForwardCache, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. input, gamma and beta under the frozen-factor convention."""
    g, x = grad_out, cache.x
    if g.shape != x.shape:
        raise InvalidInputError("grad_out shape does not match cached forward input")
    centred = x - cache.corrected_mean[None, :, None, None]
    normalized = centred * cache.inv_std[None, :, None, None]
    grad_beta = g.sum(axis=(0, 2, 3))
    grad_gamma = (g * normalized).sum(axis=(0, 2, 3))

    gx_hat = g * layer.gamma[None, :, None, None]
    corr = cache.correction

    n, c, h, w = x.shape
    m = n * h * w
    x_center = x - cache.raw.mean[None, :, None, None]

    # d corrected_var / d raw_var and d corrected_mean / d raw_mean are the
    # frozen coefficients; offsets drop out of the gradient
    dvar = (
        (gx_hat * centred).sum(axis=(0, 2, 3))
        * -0.5
        * cache.inv_std**3
        * corr.var_coef
    )
    dmean = (
        -(gx_hat.sum(axis=(0, 2, 3))) * cache.inv_std * corr.mean_coef
        + dvar * (-2.0 / m) * x_center.sum(axis=(0, 2, 3))
    )
    # gx_hat * inv_std + (dvar * 2/m) * x_center + dmean / m, added left to
    # right in place on the two arrays this backward allocated
    grad_in = gx_hat
    grad_in *= cache.inv_std[None, :, None, None]
    x_center *= (dvar * (2.0 / m))[None, :, None, None]
    grad_in += x_center
    grad_in += (dmean / m)[None, :, None, None]
    return grad_in, grad_gamma, grad_beta

