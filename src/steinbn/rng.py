"""Counter-based random streams.

Every draw is a pure function of (seed, stream key, entry index), so a
parallel fill is bit-identical to a sequential one and per-trial streams in
the Monte Carlo lab never overlap. It also means any subset of entries can be
drawn on its own: ``uniform`` at an array of entry indices gives the same bits
as the same entries of a contiguous draw.

The mixer is splitmix64 (Steele, Lea & Flood 2014), vectorized over numpy
uint64 arrays. ``_mix`` works in place: it overwrites its argument with the
mixed values and returns it, so callers pass an array they own. uint64
arithmetic wraps modulo 2^64, which is exactly splitmix64's arithmetic, so no
masking is needed.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = (np.uint64(s) for s in (30, 27, 31, 11))

# 2^-53; uniforms are (h >> 11 + 0.5) * 2^-53, strictly inside (0, 1)
_INV_2_53 = float(2.0**-53)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied in place to a uint64 array (0-d included)."""
    x += _GOLDEN
    x ^= x >> _S30
    x *= _M1
    x ^= x >> _S27
    x *= _M2
    x ^= x >> _S31
    return x


def _key_state(seed: int, stream: tuple[int, ...]) -> np.ndarray:
    """0-d uint64 state of one stream key."""
    state = _mix(np.array(seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64))
    for part in stream:
        state ^= np.uint64(part & 0xFFFFFFFFFFFFFFFF)
        _mix(state)
    return state


class CounterRng:
    """Stateless generator: streams are keyed by integer tuples."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def _entries(self, count: int, offset) -> np.ndarray:
        """Mixed entry indices, in a fresh uint64 array the caller owns."""
        if isinstance(offset, np.ndarray):
            if offset.shape != (count,):
                raise ValueError(f"index array of shape {offset.shape} for {count} draws")
            h = offset.astype(np.uint64)  # a copy: _mix overwrites it
        else:
            h = np.arange(offset, offset + count, dtype=np.uint64)
        return _mix(h)

    def _keyed_uniform(self, h: np.ndarray, stream: tuple[int, ...]) -> np.ndarray:
        """Uniforms of one stream from mixed entry indices; overwrites h."""
        h ^= _key_state(self.seed, stream)
        _mix(h)
        h >>= _S11
        u = h.astype(np.float64)
        u += 0.5
        u *= _INV_2_53
        return u

    def uniform(self, count: int, *stream: int, offset=0) -> np.ndarray:
        """i.i.d. uniforms strictly inside (0, 1).

        ``offset`` is either the first entry index (the draw covers entries
        offset..offset+count) or an integer array of ``count`` entry indices.
        """
        return self._keyed_uniform(self._entries(count, offset), stream)

    def normal(self, count: int, *stream: int, offset=0) -> np.ndarray:
        """Standard normals via Box-Muller on two counter substreams:
        sqrt(-2 log u1) * cos(2 pi u2), each step done in place.

        The substreams are uniform(count, *stream, 0) and (*stream, 1); they
        share one mix of the entry indices, and substream 1 overwrites it,
        so no more than three arrays are live at once.
        """
        h = self._entries(count, offset)
        r = self._keyed_uniform(h.copy(), (*stream, 0))
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        c = self._keyed_uniform(h, (*stream, 1))
        c *= 2.0 * np.pi
        np.cos(c, out=c)
        r *= c
        return r

    def gamma(self, count: int, alpha: float, *stream: int, offset=0) -> np.ndarray:
        """Gamma(alpha, 1) draws via inverse-CDF on counter uniforms.

        Uses scipy's gammaincinv; slower than rejection sampling but keeps the
        per-entry counter discipline (one uniform per draw).
        """
        from scipy.special import gammaincinv

        u = self.uniform(count, *stream, offset=offset)
        return gammaincinv(alpha, u)
