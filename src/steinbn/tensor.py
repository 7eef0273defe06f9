"""Dense rank-4 feature tensors and the channel-wise reductions BN needs.

Layout is fixed to row-major (n, c, h, w) with 64-bit floats so that test
oracles are bit-reproducible. Construction checks rank, shape and finiteness;
that check is where a diverging run first surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an operation receives structurally invalid input."""


class NonFiniteError(InvalidInputError):
    """Raised when a tensor holds NaN or infinite entries, as a diverging run does."""


@dataclass(frozen=True)
class Tensor4:
    """Immutable (N, C, H, W) tensor of float64 values."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 4:
            raise InvalidInputError(f"expected 4 dimensions, got {arr.ndim}")
        if min(arr.shape) < 1:
            raise InvalidInputError(f"all dims must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def n_per_channel(self) -> int:
        n, _, h, w = self.data.shape
        return n * h * w

    @classmethod
    def zeros(cls, dims: tuple[int, int, int, int]) -> "Tensor4":
        return cls(np.zeros(dims, dtype=np.float64))


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean/variance with the population (1/n) convention."""

    mean: np.ndarray
    var: np.ndarray
    count: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        var = np.asarray(self.var, dtype=np.float64)
        if mean.shape != var.shape or mean.ndim != 1:
            raise InvalidInputError("mean/var must be 1-d vectors of equal length")
        if np.any(var < 0):
            raise InvalidInputError("variances must be non-negative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)


def channel_moments(x: Tensor4) -> ChannelStats:
    """Mean and population variance per channel over batch and spatial axes.

    Matches a sequential two-pass computation over each flattened channel
    slice; the divisor is n = N*H*W (population convention).
    """
    n, c, h, w = x.dims
    count = n * h * w
    if count < 2:
        raise InvalidInputError(f"need at least 2 samples per channel, got {count}")
    flat = x.data.transpose(1, 0, 2, 3).reshape(c, count)
    mean = flat.mean(axis=1)
    var = np.mean((flat - mean[:, None]) ** 2, axis=1)
    return ChannelStats(mean=mean, var=np.maximum(var, 0.0), count=count)


def apply_affine_normalize(
    x: Tensor4,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float,
) -> Tensor4:
    """y = gamma * (x - mean) / sqrt(var + eps) + beta, per channel."""
    c = x.dims[1]
    mean, var, gamma, beta = (np.asarray(v, dtype=np.float64) for v in (mean, var, gamma, beta))
    for name, v in (("mean", mean), ("var", var), ("gamma", gamma), ("beta", beta)):
        if v.shape != (c,):
            raise InvalidInputError(f"{name} must have length C={c}, got shape {v.shape}")
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    if np.any(var + eps <= 0):
        raise InvalidInputError("var + eps must be positive")
    shaped = lambda v: v[None, :, None, None]
    y = shaped(gamma) * (x.data - shaped(mean)) / np.sqrt(shaped(var) + eps) + shaped(beta)
    return Tensor4(y)
