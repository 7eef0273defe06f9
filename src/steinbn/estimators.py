"""Shrinkage estimators for batch statistics.

Covers the classical James-Stein mean estimator, the channel-wise JS mean
correction, Gamma-scale shrinkage of variances toward their geometric mean,
the Gaussian-form variance shrinkage used by prior work (kept for
comparison), and Lasso/Ridge mean and variance estimators.

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
    """

    alpha: float
    betas: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if self.alpha <= 0:
            raise InvalidInputError("alpha must be positive")
        if betas.ndim != 1 or np.any(betas <= 0):
            raise InvalidInputError("betas must be a vector of positive scales")
        object.__setattr__(self, "betas", betas)


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


@dataclass(frozen=True)
class ShrinkageConstant:
    """A shrinkage constant together with its admissible interval."""

    c_tilde: float
    admissible_lo: float
    admissible_hi: float

    @property
    def in_interval(self) -> bool:
        return self.admissible_lo <= self.c_tilde <= self.admissible_hi

    @classmethod
    def midpoint(cls, alpha: float, p: int) -> "ShrinkageConstant":
        hi = classical_c_bound(alpha, p)
        return cls(c_tilde=hi / 2.0, admissible_lo=0.0, admissible_hi=hi)


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


def js_mean_factor(
    mu: np.ndarray,
    variance_convention: str = "population",
    positive_part: bool = False,
) -> tuple[float, bool]:
    """Shrinkage factor for a vector of channel means and a degraded flag.

    The factor is 1 - (C-2)*var(mu)/||mu||^2 where var(mu) is the dispersion
    of the entries of mu. For C < 3 or a zero vector the factor degrades to
    the identity (flag True) so BN still functions on tiny channel counts.
    """
    if variance_convention not in ("population", "sample"):
        raise InvalidInputError(f"unknown variance convention {variance_convention!r}")
    mu = np.asarray(mu, dtype=np.float64)
    c = mu.size
    norm_sq = float(mu @ mu)
    if c < 3 or norm_sq == 0.0:
        return 1.0, True
    ddof = 0 if variance_convention == "population" else 1
    disp = float(np.var(mu, ddof=ddof))
    factor = 1.0 - (c - 2) * disp / norm_sq
    if positive_part:
        factor = max(factor, 0.0)
    return factor, False


def js_mean_channels(
    mu: np.ndarray,
    variance_convention: str = "population",
    positive_part: bool = False,
) -> np.ndarray:
    """Channel-mean vector scaled by the James-Stein factor."""
    mu = np.asarray(mu, dtype=np.float64)
    factor, _ = js_mean_factor(mu, variance_convention, positive_part)
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


def stein_variance_coefficients(
    var: np.ndarray, n: int, c: float, floor: float = VAR_FLOOR
) -> tuple[float, float]:
    """(n/(n+1), c*V) with V the geometric mean of the floored variances."""
    return n / (n + 1.0), c * geometric_mean(np.maximum(var, floor))


def js_variance_channels(
    var: np.ndarray, n: int, c: float, floor: float = VAR_FLOOR
) -> np.ndarray:
    """n/(n+1)*var_i + c*V with V the geometric mean of the (floored) variances."""
    if n < 2:
        raise InvalidInputError(f"need n >= 2 samples per channel, got {n}")
    var = np.maximum(np.asarray(var, dtype=np.float64), floor)
    coef, offset = stein_variance_coefficients(var, n, c, floor)
    return coef * var + offset


def variance_gamma_params(sigma2: np.ndarray, n: int) -> GammaParams:
    """Gamma(alpha=(n-1)/2, beta_i=2*sigma_i^2/n) for empirical variances."""
    if n < 2:
        raise InvalidInputError(f"need n >= 2, got {n}")
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if np.any(sigma2 <= 0):
        raise InvalidInputError("sigma2 entries must be positive")
    return GammaParams(alpha=(n - 1) / 2.0, betas=2.0 * sigma2 / n)


def khoshsirat_variance_coefficients(
    var: np.ndarray, floor: float = VAR_FLOOR
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-form JS factor t on the variance vector; channels with t*var
    below `floor` are clamped to it (coef 0, offset floor)."""
    t, _ = js_mean_factor(var)
    clamped = t * var < floor
    return np.where(clamped, 0.0, t), np.where(clamped, floor, 0.0)


def khoshsirat_variance(var: np.ndarray, floor: float = VAR_FLOOR) -> np.ndarray:
    """Gaussian-form JS shrinkage applied to a variance vector.

    Reproduces the prior-work baseline that shrinks variances with the same
    formula as means; outputs are clamped at `floor` since the formula can go
    negative on strongly dispersed variance vectors.
    """
    var = np.asarray(var, dtype=np.float64)
    if var.size < 3:
        raise InvalidInputError("need at least 3 channels")
    if float(var @ var) == 0.0:
        raise ZeroDivisionError("cannot shrink the zero vector")
    coef, offset = khoshsirat_variance_coefficients(var, floor)
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
