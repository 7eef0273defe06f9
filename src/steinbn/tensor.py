"""The rank-4 input validator and the channel-wise reductions BN needs.

Activations travel as plain row-major (n, c, h, w) float64 arrays. Tensor4
validates data where it enters: a dataset's images are checked once for
rank, shape and finiteness, and nothing on the per-step path re-checks them.
A diverging run surfaces at the model's output instead, as a non-finite
training loss or validation logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an operation receives structurally invalid input."""


class NonFiniteError(InvalidInputError):
    """Raised for NaN or infinite values: in input data or a checkpoint, or as
    the loss of a diverging run."""


@dataclass(frozen=True)
class Tensor4:
    """Validated, read-only (N, C, H, W) float64 array, for data entering the lab."""

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


class ChannelStats(NamedTuple):
    """Per-channel mean/variance with the population (1/n) convention.

    Built only inside the program, where ``channel_moments``'s ``var`` is a
    mean of squares and never negative, so it carries no checks of its own.
    """

    mean: np.ndarray
    var: np.ndarray
    count: int


def channel_moments(x: np.ndarray) -> ChannelStats:
    """Mean and population variance per channel over batch and spatial axes.

    Matches a sequential two-pass computation over each flattened channel
    slice; the divisor is n = N*H*W (population convention).
    """
    n, c, h, w = x.shape
    count = n * h * w
    if count < 2:
        raise InvalidInputError(f"need at least 2 samples per channel, got {count}")
    flat = x.transpose(1, 0, 2, 3).reshape(c, count)
    mean = flat.mean(axis=1)
    var = np.mean((flat - mean[:, None]) ** 2, axis=1)
    return ChannelStats(mean=mean, var=var, count=count)
