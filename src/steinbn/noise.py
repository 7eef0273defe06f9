"""Zero-mean additive perturbation samplers.

Families: the heavy-tailed Levy/Gaussian-mixture density with closed-form
inverse CDF, bounded uniform perturbations, plain Gaussian, and none.
Untruncated, the Levy-Gauss density
``1/(2*sqrt(2)*pi*sigma) * (x^2/(2 sigma^2) + 1/4)^-1`` is exactly a Cauchy
law of scale sigma/sqrt(2): it has no variance, so its sigma, and a noise
level that sets it, is a scale, not a standard deviation.
Sampling is counter-based per entry, so identical (seed, spec, count)
always produce bit-identical draws, and a draw split at any offset equals
the whole draw. A truncated draw redraws only its out-of-bound entries, at
their own entry indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import CounterRng
from .tensor import InvalidInputError

FAMILIES = ("levy-gauss", "bounded-uniform", "gaussian", "none")

_MAX_RETRIES = 64


@dataclass(frozen=True)
class NoiseSpec:
    """Perturbation family plus its scale and optional coordinate bound.

    epsilon_bound > 0 truncates levy-gauss samples to [-eps, eps] (and sets
    the half-width of bounded-uniform); 0 means untruncated.
    """

    family: str = "none"
    sigma: float = 1.0
    epsilon_bound: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidInputError(f"unknown noise family {self.family!r}")
        if self.family in ("levy-gauss", "gaussian") and self.sigma <= 0:
            raise InvalidInputError("sigma must be positive for stochastic families")
        if self.epsilon_bound < 0:
            raise InvalidInputError("epsilon_bound must be non-negative")


def levy_gauss_pdf(x, sigma: float = 1.0):
    """Density f(x) = 1/(2*sqrt(2)*pi*sigma) * (x^2/(2 sigma^2) + 1/4)^-1."""
    x = np.asarray(x, dtype=np.float64)
    return 1.0 / (2.0 * math.sqrt(2.0) * math.pi * sigma) / (x**2 / (2.0 * sigma**2) + 0.25)


def levy_gauss_cdf(x, sigma: float = 1.0):
    """Closed-form CDF: F(x) = 1/2 + arctan(sqrt(2) x / sigma) / pi."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 + np.arctan(math.sqrt(2.0) * x / sigma) / math.pi


def _quantile(u: np.ndarray, sigma: float) -> np.ndarray:
    """F^-1(u) = (sigma / sqrt(2)) * tan(pi * (u - 1/2)), unchecked, written
    over u (a float64 array the caller owns) and returned."""
    u -= 0.5
    u *= math.pi
    np.tan(u, out=u)
    u *= sigma / math.sqrt(2.0)
    return u


def levy_gauss_quantile(u, sigma: float = 1.0):
    """Inverse CDF: F^-1(u) = (sigma / sqrt(2)) * tan(pi * (u - 1/2))."""
    u = np.array(u, dtype=np.float64)  # a copy: _quantile overwrites it
    if sigma <= 0:
        raise InvalidInputError("sigma must be positive")
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise InvalidInputError("quantile argument must lie strictly inside (0, 1)")
    out = _quantile(u, sigma)
    return float(out) if out.ndim == 0 else out


def _sample_levy_gauss(
    rng: CounterRng, count: int, sigma: float, eps: float, stream: tuple[int, ...], offset: int
) -> np.ndarray:
    """Inverse-CDF draws; with eps > 0, each entry outside [-eps, eps] is
    redrawn on retry r from the (*stream, r) substream at the same entry
    index, up to _MAX_RETRIES times, and a survivor is then clipped.

    Only the entries still out of bounds are redrawn (index-array uniforms),
    which gives the same bits as redrawing the whole block and keeping the
    fresh values only where the old ones were out of bounds. Counter uniforms
    lie strictly inside (0, 1) and the spec has checked sigma, so the
    quantile is taken in place on the fresh uniforms, without
    ``levy_gauss_quantile``'s checks.
    """
    out = _quantile(rng.uniform(count, *stream, 0, offset=offset), sigma)
    if eps <= 0:
        return out
    bad = np.flatnonzero(np.abs(out) > eps)
    for retry in range(1, _MAX_RETRIES + 1):
        if bad.size == 0:
            return out
        entries = bad.astype(np.uint64) + np.uint64(offset)
        fresh = _quantile(rng.uniform(bad.size, *stream, retry, offset=entries), sigma)
        out[bad] = fresh
        bad = bad[np.abs(fresh) > eps]
    return np.clip(out, -eps, eps, out=out)


def sample_noise_flat(
    spec: NoiseSpec, count: int, rng: CounterRng, *stream: int, offset: int = 0
) -> np.ndarray:
    """Flat vector of i.i.d. perturbations from a keyed counter stream."""
    if count < 0:
        raise InvalidInputError(f"count must be non-negative, got {count}")
    if spec.family == "none":
        return np.zeros(count)
    if spec.family == "bounded-uniform":
        eps = spec.epsilon_bound
        return (2.0 * rng.uniform(count, *stream, offset=offset) - 1.0) * eps
    if spec.family == "gaussian":
        return spec.sigma * rng.normal(count, *stream, offset=offset)
    return _sample_levy_gauss(rng, count, spec.sigma, spec.epsilon_bound, tuple(stream), offset)


def subgaussian_proxy_of_bound(epsilon: float) -> float:
    """Variance proxy 2*eps^2 of a zero-mean vector bounded in [-eps, eps]."""
    if epsilon < 0:
        raise InvalidInputError("epsilon must be non-negative")
    return 2.0 * epsilon**2


def truncated_levy_gauss(epsilon: float) -> NoiseSpec:
    """Default experimental noise: mixture density truncated at eps = 3*sigma.

    Untruncated, the density is a Cauchy law of scale sigma/sqrt(2), with no
    variance; sigma = eps/3 is its scale, not a standard deviation.

    epsilon == 0 degrades to the zero-noise spec so level sweeps can include
    a clean cell.
    """
    if epsilon < 0:
        raise InvalidInputError("epsilon must be non-negative")
    if epsilon == 0:
        return NoiseSpec(family="none")
    return NoiseSpec(family="levy-gauss", sigma=epsilon / 3.0, epsilon_bound=epsilon)
