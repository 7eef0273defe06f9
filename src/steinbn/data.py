"""Synthetic datasets and their deterministic splits for the training harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import CounterRng
from .tensor import InvalidInputError, Tensor4


@dataclass(frozen=True)
class Dataset:
    images: np.ndarray  # (N, C, H, W) float64, read-only
    labels: np.ndarray  # (N,) int64

    def __post_init__(self):
        # the one Tensor4 check of the data a model sees: rank, shape, finiteness
        images = Tensor4(self.images).data
        if self.labels.shape != (images.shape[0],):
            raise InvalidInputError("labels must be (N,) and match the images")
        object.__setattr__(self, "images", images)


def make_synthetic_blobs(
    n_classes: int,
    n_per_class: int,
    channels: int,
    hw: int,
    sep: float,
    seed: int,
    rows: np.ndarray | None = None,
) -> Dataset:
    """Gaussian class blobs in channel space.

    Each class has a per-channel mean drawn from N(0, sep^2/2) so the rms
    per-channel separation between two class means is `sep` in units of the
    within-class standard deviation (which is 1). Every pixel of a channel
    shares its class mean.

    With ``rows`` (integer indices into the n_classes * n_per_class samples),
    only those samples are drawn, in that order: pixel j of sample r is entry
    r*channels*hw*hw + j of the counter stream, so the result is bit-identical
    to the same rows of the full dataset.

    The class means are added in place to the fresh pixel draw, so besides
    the images only the draw's blocks and an (N, channels) array of means
    are built.
    """
    if n_classes < 2 or sep < 0:
        raise InvalidInputError("need n_classes >= 2 and sep >= 0")
    rng = CounterRng(seed)
    centers = (sep / np.sqrt(2.0)) * rng.normal(n_classes * channels, 101).reshape(
        n_classes, channels
    )
    n_total = n_classes * n_per_class
    labels = np.repeat(np.arange(n_classes), n_per_class)
    pixels_per_sample = channels * hw * hw
    if rows is None:
        pixels = rng.normal(n_total * pixels_per_sample, 102)
    else:
        rows = np.asarray(rows)
        if (
            rows.ndim != 1
            or rows.dtype.kind not in "iu"
            or not np.all((rows >= 0) & (rows < n_total))
        ):
            raise InvalidInputError(f"rows must be a 1-D array of integers in [0, {n_total})")
        labels = labels[rows]
        entries = (rows[:, None] * pixels_per_sample + np.arange(pixels_per_sample)).ravel()
        pixels = rng.normal(entries.size, 102, offset=entries)
    images = pixels.reshape(-1, channels, hw, hw)
    images += centers[labels][:, :, None, None]
    # fixed interleaved order; train/val/test splitting permutes separately
    return Dataset(images=images, labels=labels.astype(np.int64))


def split_sizes(n: int) -> tuple[int, int, int]:
    """Train, validation and test sizes of the 80/10/10 split of n samples."""
    n_train, n_val = int(0.8 * n), int(0.1 * n)
    return n_train, n_val, n - n_train - n_val


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 80/10/10 train/val/test permutation split."""
    order = np.argsort(CounterRng(seed).uniform(n, 103), kind="stable")
    n_train, n_val, _ = split_sizes(n)
    return order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :]
