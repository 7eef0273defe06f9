"""Shrinkage estimators for batch statistics.

Covers the classical James-Stein mean estimator, the channel-wise JS mean
correction, Gamma-scale shrinkage of variances toward their geometric mean,
the Gaussian-form variance shrinkage used by prior work (kept for
comparison), and Lasso/Ridge mean and variance estimators.

The channel-wise JS factor lies in [2/C, 1], so it needs no positive-part
clip, and every variance floor but the Lasso rule's (0 in ``lasso_variance``)
is the constant ``VAR_FLOOR``.

Each statistic correction that batch norm applies is written once, as a
``*_coefficients`` rule returning the per-channel affine map
``corrected = coef * raw + offset``; the BN variants and the public
estimators below both apply those rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import InvalidInputError

VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class GammaParams:
    """Shape/scale parameters of the sampling distribution of empirical variances.

    For n samples per coordinate: alpha = (n-1)/2 and betas[i] = 2*sigma_i^2/n.
    A plain record: ``variance_gamma_params`` checks n and sigma^2 first.
    """

    alpha: float
    betas: np.ndarray


def classical_c_bound(alpha: float, p: int) -> float:
    """Upper end of the admissible shrinkage interval, 2(p-1)/((a+1)(a*p+1))."""
    return 2.0 * (p - 1) / ((alpha + 1.0) * (alpha * p + 1.0))


def perturbed_c_bound(alpha: float, p: int) -> float:
    """Upper end of the admissible interval under bounded additive noise.

    2p/(a*p+1) * exp(1/a) * sqrt(1 + 1/a) - 2/(a+1); strictly wider than the
    classical interval for every alpha > 0, p >= 2.
    """
    return (
        2.0 * p / (alpha * p + 1.0) * math.exp(1.0 / alpha) * math.sqrt(1.0 + 1.0 / alpha)
        - 2.0 / (alpha + 1.0)
    )


def variance_c_bound(n: int, p: int) -> float:
    """Admissible upper bound for the channel-variance shrinkage, 4n(p-1)/((n+1)((n-1)p+2))."""
    return 4.0 * n * (p - 1) / ((n + 1.0) * ((n - 1.0) * p + 2.0))


def js_mean_classical(z: np.ndarray, variance_scale: float = 1.0) -> np.ndarray:
    """(1 - (p-2)*variance_scale/||z||^2) * z over the last axis, without clipping."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    p = z.shape[-1]
    if p < 3:
        raise InvalidInputError(f"James-Stein mean shrinkage needs p >= 3, got {p}")
    if variance_scale <= 0:
        raise InvalidInputError("variance_scale must be positive")
    norm_sq = np.einsum("...i,...i->...", z, z)
    if np.any(norm_sq == 0.0):
        raise ZeroDivisionError("cannot shrink the zero vector")
    factor = 1.0 - (p - 2) * variance_scale / norm_sq
    return factor[..., None] * z


def js_mean_factor(mu: np.ndarray) -> tuple[float, bool]:
    """Shrinkage factor for a vector of channel means and a degraded flag.

    The factor is 1 - (C-2)*var(mu)/||mu||^2 where var(mu) is the population
    dispersion of the C entries of mu. As var(mu) <= ||mu||^2/C, the factor
    lies in [2/C, 1], so it never needs a positive-part clip. For C < 3 or a
    zero vector the factor degrades to the identity (flag True) so BN still
    functions on tiny channel counts.
    """
    mu = np.asarray(mu, dtype=np.float64)
    c = mu.size
    norm_sq = float(mu @ mu)
    if c < 3 or norm_sq == 0.0:
        return 1.0, True
    return 1.0 - (c - 2) * float(np.var(mu)) / norm_sq, False


def js_mean_channels(mu: np.ndarray) -> np.ndarray:
    """Channel-mean vector scaled by the James-Stein factor."""
    mu = np.asarray(mu, dtype=np.float64)
    factor, _ = js_mean_factor(mu)
    return factor * mu


def geometric_mean(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.exp(np.mean(np.log(x), axis=-1))


def gamma_scale_shrink(x: np.ndarray, alpha: float, c: float) -> np.ndarray:
    """x_i/(alpha+1) + c*V over the last axis, V the geometric mean; c=0 is naive."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape[-1] < 2:
        raise InvalidInputError("need at least 2 coordinates")
    if np.any(x <= 0):
        raise InvalidInputError("geometric mean undefined for non-positive entries")
    if alpha <= 0:
        raise InvalidInputError("alpha must be positive")
    return x / (alpha + 1.0) + c * geometric_mean(x)[..., None]


def stein_variance_coefficients(var: np.ndarray, n: int, c: float) -> tuple[float, float]:
    """(n/(n+1), c*V) with V the geometric mean of the variances floored at VAR_FLOOR."""
    return n / (n + 1.0), c * geometric_mean(np.maximum(var, VAR_FLOOR))


def js_variance_channels(var: np.ndarray, n: int, c: float) -> np.ndarray:
    """n/(n+1)*var_i + c*V over the variances floored at VAR_FLOOR, V their geometric mean."""
    if n < 2:
        raise InvalidInputError(f"need n >= 2 samples per channel, got {n}")
    var = np.maximum(np.asarray(var, dtype=np.float64), VAR_FLOOR)
    coef, offset = stein_variance_coefficients(var, n, c)
    return coef * var + offset


def variance_gamma_params(sigma2: np.ndarray, n: int) -> GammaParams:
    """Gamma(alpha=(n-1)/2, beta_i=2*sigma_i^2/n) for empirical variances."""
    if n < 2:
        raise InvalidInputError(f"need n >= 2, got {n}")
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if sigma2.ndim != 1 or not np.all(np.isfinite(sigma2) & (sigma2 > 0)):
        raise InvalidInputError("sigma2 must be a vector of finite positive variances")
    return GammaParams(alpha=(n - 1) / 2.0, betas=2.0 * sigma2 / n)


def khoshsirat_variance_coefficients(var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-form JS factor t on the variance vector; channels with t*var
    below VAR_FLOOR are clamped to it (coef 0, offset VAR_FLOOR)."""
    t, _ = js_mean_factor(var)
    clamped = t * var < VAR_FLOOR
    return np.where(clamped, 0.0, t), np.where(clamped, VAR_FLOOR, 0.0)


def khoshsirat_variance(var: np.ndarray) -> np.ndarray:
    """Gaussian-form JS shrinkage applied to a variance vector.

    Reproduces the prior-work baseline that shrinks variances with the same
    formula as means; outputs below VAR_FLOOR, which only near-zero variances
    reach as the factor is at least 2/C, are clamped to it.
    """
    var = np.asarray(var, dtype=np.float64)
    if var.size < 3:
        raise InvalidInputError("need at least 3 channels")
    if float(var @ var) == 0.0:
        raise ZeroDivisionError("cannot shrink the zero vector")
    coef, offset = khoshsirat_variance_coefficients(var)
    return coef * var + offset


def lasso_mean_coefficients(mean, n: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Soft threshold at lam/(2n): coef 1 and offset -sign(mean)*lam/(2n) where
    |mean| exceeds it, else coef 0 and offset 0."""
    thr = lam / (2.0 * n)
    active = np.abs(mean) > thr
    return np.where(active, 1.0, 0.0), np.where(active, -np.sign(mean) * thr, 0.0)


def lasso_variance_coefficients(
    var, lam: float, floor: float = VAR_FLOOR
) -> tuple[np.ndarray, np.ndarray]:
    """var - lam/2 where that exceeds `floor`, else the constant `floor`."""
    half = lam / 2.0
    above = var - half > floor
    return np.where(above, 1.0, 0.0), np.where(above, -half, floor)


def lasso_mean(xbar: float, n: int, lam: float) -> float:
    """Soft-thresholded mean: sign(xbar)*max(0, |xbar| - lam/(2n))."""
    if n < 1 or lam < 0:
        raise InvalidInputError("need n >= 1 and lam >= 0")
    coef, offset = lasso_mean_coefficients(xbar, n, lam)
    return float(coef * xbar + offset)


def lasso_variance(s2: float, lam: float) -> float:
    """Thresholded variance: max(0, s2 - lam/2)."""
    if s2 < 0 or lam < 0:
        raise InvalidInputError("need s2 >= 0 and lam >= 0")
    coef, offset = lasso_variance_coefficients(s2, lam, floor=0.0)
    return float(coef * s2 + offset)


def ridge_mean(sum_x: float, n: int, lam: float) -> float:
    """Ridge-shrunk mean: sum(x)/(n + lam)."""
    if n < 1 or lam < 0:
        raise InvalidInputError("need n >= 1 and lam >= 0")
    return sum_x / (n + lam)


def ridge_variance(s2: float, lam: float) -> float:
    """Ridge-scaled variance: s2/(1 + lam)."""
    if s2 < 0 or lam < 0:
        raise InvalidInputError("need s2 >= 0 and lam >= 0")
    return s2 / (1.0 + lam)
