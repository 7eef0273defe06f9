"""The input checks every module shares, and the channel-wise reductions BN needs.

Each checked record names its fields' domains in one table of
``name -> (what it must be, test)`` and walks it with ``check_domains``; a
test that reads a number starts with ``is_int`` or ``is_real``.

Activations travel as plain row-major (n, c, h, w) float64 arrays. Tensor4
validates data where it enters: a dataset's images are checked once for
rank, shape and finiteness, and nothing on the per-step path re-checks them.
A diverging run surfaces at the model's output instead, as a non-finite
training loss or validation logits.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an operation receives structurally invalid input."""


class NonFiniteError(InvalidInputError):
    """Raised for NaN or infinite values: in input data or a checkpoint, or as
    the loss of a diverging run."""


def is_int(value) -> bool:
    """An integer that is not a bool: True would otherwise run as 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number, NaN and infinities included, that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_domains(pairs, domains: dict, refusal: str = "{name} must be {domain}, got {value!r}") -> None:
    """Refuse the first (name, value) of pairs that fails its test in
    domains[name] = (what it must be, test), formatting refusal with the three."""
    for name, value in pairs:
        domain, ok = domains[name]
        if not ok(value):
            raise InvalidInputError(refusal.format(name=name, domain=domain, value=value))


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
