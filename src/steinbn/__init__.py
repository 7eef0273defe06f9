"""Stein-shrinkage batch normalization laboratory.

Shrinkage estimators for batch statistics (James-Stein mean, Gamma-scale
variance, Lasso/Ridge baselines), six batch-norm variants with manual
forward/backward passes, heavy-tailed noise samplers, a Monte Carlo risk
lab for dominance checks, and a small training harness.
"""

__version__ = "0.1.0"

from .tensor import Tensor4, ChannelStats, channel_moments
from .estimators import (
    GammaParams,
    ShrinkageConstant,
    js_mean_classical,
    js_mean_channels,
    gamma_scale_shrink,
    js_variance_channels,
    variance_gamma_params,
    khoshsirat_variance,
    lasso_mean,
    lasso_variance,
    ridge_mean,
    ridge_variance,
    classical_c_bound,
    variance_c_bound,
    perturbed_c_bound,
)
from .noise import NoiseSpec, levy_gauss_quantile, levy_gauss_cdf, subgaussian_proxy_of_bound
from .batchnorm import BNLayer, BNForwardCache, BNVariant, bn_forward, bn_backward

__all__ = [
    "Tensor4",
    "ChannelStats",
    "channel_moments",
    "GammaParams",
    "ShrinkageConstant",
    "js_mean_classical",
    "js_mean_channels",
    "gamma_scale_shrink",
    "js_variance_channels",
    "variance_gamma_params",
    "khoshsirat_variance",
    "lasso_mean",
    "lasso_variance",
    "ridge_mean",
    "ridge_variance",
    "classical_c_bound",
    "variance_c_bound",
    "perturbed_c_bound",
    "NoiseSpec",
    "levy_gauss_quantile",
    "levy_gauss_cdf",
    "subgaussian_proxy_of_bound",
    "BNLayer",
    "BNForwardCache",
    "BNVariant",
    "bn_forward",
    "bn_backward",
]
