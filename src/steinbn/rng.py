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
masking is needed. A stream key is a few scalars, mixed once per draw call:
``_key_state`` runs the same splitmix64 on Python ints masked to 64 bits
and gives the same bits: on a 2-vCPU Xeon a 3-part key takes about 3 us,
where numpy operations on 0-d arrays took about 40.

``uniform`` and ``normal`` fill a preallocated output in blocks of ``_BLOCK``
draws, so besides the output a draw keeps only a few block-sized arrays live
whatever its count. Each draw depends on its entry index alone, so the
blocking does not change a bit.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT, _M1_INT, _M2_INT = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GOLDEN, _M1, _M2 = (np.uint64(c) for c in (_GOLDEN_INT, _M1_INT, _M2_INT))
_S30, _S27, _S31, _S11 = (np.uint64(s) for s in (30, 27, 31, 11))

# 2^-53; uniforms are (h >> 11 + 0.5) * 2^-53, strictly inside (0, 1)
_INV_2_53 = float(2.0**-53)

# draws per block of a fill. On a 2-vCPU Xeon (2 MiB L2), a normal of 40k-160k
# draws (the size of the Monte Carlo checks' draw blocks and of the datasets)
# took a median 55-59 ns per draw at 2^14, 61-74 ns at 2^16 and 58-70 ns as
# one whole-array pass
_BLOCK = 1 << 14


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied in place to a uint64 array."""
    x += _GOLDEN
    x ^= x >> _S30
    x *= _M1
    x ^= x >> _S27
    x *= _M2
    x ^= x >> _S31
    return x


def _key_state(seed: int, stream: tuple[int, ...]) -> np.uint64:
    """uint64 state of one stream key: mix(seed), then state = mix(state ^ part) per part.

    The splitmix64 of ``_mix`` on Python ints, masked to 64 bits after each
    add and multiply, so a part of any size or sign counts modulo 2^64."""
    state = 0  # mix(0 ^ seed) is mix(seed)
    for part in (seed, *stream):
        x = ((state ^ operator.index(part)) + _GOLDEN_INT) & _MASK
        x ^= x >> 30
        x = (x * _M1_INT) & _MASK
        x ^= x >> 27
        x = (x * _M2_INT) & _MASK
        state = x ^ (x >> 31)
    return np.uint64(state)


class CounterRng:
    """Stateless generator: streams are keyed by integer tuples."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    @staticmethod
    def _entry_blocks(count: int, offset):
        """(lo, hi, mixed entry indices of draws lo..hi) per block of at most
        ``_BLOCK`` draws; each index array is fresh, so the caller may overwrite it."""
        indexed = isinstance(offset, np.ndarray)
        if indexed and offset.shape != (count,):
            raise ValueError(f"index array of shape {offset.shape} for {count} draws")
        for lo in range(0, count, _BLOCK):
            hi = min(lo + _BLOCK, count)
            if indexed:
                h = offset[lo:hi].astype(np.uint64)  # a copy: _mix overwrites it
            else:
                h = np.arange(offset + lo, offset + hi, dtype=np.uint64)
            yield lo, hi, _mix(h)

    @staticmethod
    def _keyed_uniform(h: np.ndarray, key: np.ndarray, out: np.ndarray) -> None:
        """Write to out the uniforms of stream state key at mixed entry indices h;
        overwrites h."""
        h ^= key
        _mix(h)
        h >>= _S11
        out[...] = h
        out += 0.5
        out *= _INV_2_53

    def uniform(self, count: int, *stream: int, offset=0) -> np.ndarray:
        """i.i.d. uniforms strictly inside (0, 1).

        ``offset`` is either the first entry index (the draw covers entries
        offset..offset+count) or an integer array of ``count`` entry indices.
        """
        out = np.empty(count)
        key = _key_state(self.seed, stream)
        for lo, hi, h in self._entry_blocks(count, offset):
            self._keyed_uniform(h, key, out[lo:hi])
        return out

    def normal(self, count: int, *stream: int, offset=0) -> np.ndarray:
        """Standard normals via Box-Muller on two counter substreams:
        sqrt(-2 log u1) * cos(2 pi u2), each step done in place.

        The substreams are uniform(count, *stream, 0) and (*stream, 1); they
        share one mix of the entry indices. Each block of draws is built in
        the output itself, so besides it no more than three block-sized
        arrays are live at once.
        """
        out = np.empty(count)
        key_r, key_c = (_key_state(self.seed, (*stream, sub)) for sub in (0, 1))
        c = np.empty(min(count, _BLOCK))
        for lo, hi, h in self._entry_blocks(count, offset):
            r, cb = out[lo:hi], c[: hi - lo]
            self._keyed_uniform(h.copy(), key_r, r)
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            self._keyed_uniform(h, key_c, cb)
            cb *= 2.0 * np.pi
            np.cos(cb, out=cb)
            r *= cb
        return out

    def gamma(self, count: int, alpha: float, *stream: int, offset=0) -> np.ndarray:
        """Gamma(alpha, 1) draws via inverse-CDF on counter uniforms.

        Uses scipy's gammaincinv; slower than rejection sampling but keeps the
        per-entry counter discipline (one uniform per draw).
        """
        from scipy.special import gammaincinv

        u = self.uniform(count, *stream, offset=offset)
        return gammaincinv(alpha, u)
