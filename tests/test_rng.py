"""Determinism and distribution checks for the counter-based RNG."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from steinbn import rng as rng_module
from steinbn.noise import NoiseSpec, sample_noise_flat, truncated_levy_gauss
from steinbn.rng import CounterRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = CounterRng(42).uniform(1000, 7)
        b = CounterRng(42).uniform(1000, 7)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(CounterRng(1).uniform(100, 7), CounterRng(2).uniform(100, 7))

    def test_different_streams_differ(self):
        rng = CounterRng(3)
        assert not np.array_equal(rng.uniform(100, 1), rng.uniform(100, 2))

    def test_offset_chunks_match_single_fill(self):
        # block-chunked fills must equal one contiguous fill bit-for-bit
        rng = CounterRng(9)
        whole = rng.uniform(100, 5)
        parts = np.concatenate([rng.uniform(40, 5, offset=0), rng.uniform(60, 5, offset=40)])
        np.testing.assert_array_equal(whole, parts)

    def test_offset_chunks_match_for_normals(self):
        rng = CounterRng(9)
        whole = rng.normal(100, 5)
        parts = np.concatenate([rng.normal(37, 5, offset=0), rng.normal(63, 5, offset=37)])
        np.testing.assert_array_equal(whole, parts)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        count=st.integers(1, 500),
        offset=st.integers(0, 2**63),
        data=st.data(),
    )
    def test_index_array_matches_contiguous_draw(self, seed, count, offset, data):
        # any entries, in any order and with repeats, drawn on their own
        picks = data.draw(st.lists(st.integers(0, count - 1), max_size=2 * count))
        idx = np.array(picks, dtype=np.int64)
        entries = idx.astype(np.uint64) + np.uint64(offset)
        rng = CounterRng(seed)
        for draw in (rng.uniform, rng.normal):
            whole = draw(count, 3, offset=offset)
            assert draw(idx.size, 3, offset=entries).tobytes() == whole[idx].tobytes()

    def test_index_array_length_must_match_count(self):
        with pytest.raises(ValueError):
            CounterRng(0).uniform(3, 1, offset=np.arange(4, dtype=np.uint64))

    def test_index_array_is_not_modified(self):
        entries = np.array([5, 2, 9], dtype=np.uint64)
        CounterRng(0).uniform(3, 1, offset=entries)
        np.testing.assert_array_equal(entries, [5, 2, 9])

    def test_multipart_stream_keys(self):
        rng = CounterRng(4)
        assert not np.array_equal(rng.uniform(50, 1, 2), rng.uniform(50, 2, 1))


def _reference_key_state(seed, stream):
    """Stream key as numpy ops on 0-d uint64 arrays, through ``_mix``."""
    state = rng_module._mix(np.array(seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64))
    for part in stream:
        state ^= np.uint64(part & 0xFFFFFFFFFFFFFFFF)
        rng_module._mix(state)
    return state


_KEY_PARTS = st.one_of(st.integers(0, 2**64 - 1), st.integers(-(2**80), 2**80))


@settings(max_examples=500, deadline=None)
@given(seed=_KEY_PARTS, stream=st.lists(_KEY_PARTS, max_size=4))
def test_key_state_is_splitmix64_on_uint64(seed, stream):
    # parts are taken modulo 2^64, so negative parts and parts >= 2^64 wrap
    key = rng_module._key_state(seed, tuple(stream))
    assert type(key) is np.uint64
    assert key == _reference_key_state(seed, stream)


class TestBlockFill:
    """A fill cut into blocks of ``_BLOCK`` draws gives the same bits as the
    same entries cut into separate calls at any points."""

    BLOCK = rng_module._BLOCK
    COUNTS = (BLOCK - 1, BLOCK + 1, 3 * BLOCK + 5)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        count=st.sampled_from(COUNTS),
        offset=st.integers(0, 2**62),
        stride=st.integers(1, 2**40),
        indexed=st.booleans(),
        data=st.data(),
    )
    def test_fill_equals_pieces_drawn_apart(self, seed, count, offset, stride, indexed, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=4)))
        bounds = [0, *cuts, count]
        # an index array visits entries out of order and far apart (uint64 wraps)
        entries = np.arange(count, dtype=np.uint64) * np.uint64(stride) + np.uint64(offset)

        def at(lo, hi):
            return entries[lo:hi] if indexed else offset + lo

        rng = CounterRng(seed)
        draws = {
            "uniform": rng.uniform,
            "normal": rng.normal,
            "gamma": lambda n, *stream, offset: rng.gamma(n, 2.5, *stream, offset=offset),
        }
        for name, draw in draws.items():
            whole = draw(count, 6, offset=at(0, count))
            pieces = [draw(hi - lo, 6, offset=at(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
            assert whole.tobytes() == np.concatenate(pieces).tobytes(), name


class TestDistributions:
    def test_uniform_strictly_inside_unit_interval(self):
        u = CounterRng(0).uniform(10**6, 1)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_uniform_ks(self):
        u = CounterRng(11).uniform(10**5, 1)
        assert stats.kstest(u, "uniform").statistic < 0.005

    def test_normal_ks(self):
        z = CounterRng(12).normal(10**5, 1)
        assert stats.kstest(z, "norm").statistic < 0.005

    def test_gamma_moments(self):
        alpha = 4.5
        x = CounterRng(13).gamma(10**5, alpha, 1)
        assert abs(x.mean() - alpha) < 4 * np.sqrt(alpha / 10**5)
        assert abs(x.var() - alpha) / alpha < 0.05

    def test_gamma_ks(self):
        x = CounterRng(14).gamma(10**5, 2.0, 1)
        assert stats.kstest(x, "gamma", args=(2.0,)).statistic < 0.005


# Golden outputs: sha256 of the raw float64 bytes of each draw, recorded
# before the in-place mixer and the per-index truncated redraw. The RNG and
# the samplers must stay bit-identical across optimisations, so a digest may
# change only with a change that is allowed to change every draw.
_LEVY = NoiseSpec(family="levy-gauss", sigma=1.0, epsilon_bound=0.0)
# |x| <= 1e-9 at sigma 1 almost never happens in 64 retries: the clip path
_CLIPPED = NoiseSpec(family="levy-gauss", sigma=1.0, epsilon_bound=1e-9)
_GOLDEN_DRAWS = {
    "uniform": lambda: CounterRng(42).uniform(1000, 7),
    "uniform-multipart-key": lambda: CounterRng(4).uniform(257, 1, 2, offset=2**40),
    "uniform-offset-wraps": lambda: CounterRng(5).uniform(6, 1, offset=2**64 - 3),
    "normal-odd": lambda: CounterRng(12).normal(1001, 5),
    "normal-even": lambda: CounterRng(12).normal(1000, 5, offset=17),
    "gamma": lambda: CounterRng(13).gamma(500, 4.5, 3),
    "gamma-small-shape": lambda: CounterRng(13).gamma(500, 0.3, 3, offset=500),
    "levy-gauss": lambda: sample_noise_flat(_LEVY, 4000, CounterRng(3), 2),
    "levy-gauss-eps-0.1": lambda: sample_noise_flat(
        truncated_levy_gauss(0.1), 20_000, CounterRng(1), 2, offset=5
    ),
    "levy-gauss-eps-0.3": lambda: sample_noise_flat(
        truncated_levy_gauss(0.3), 20_001, CounterRng(2), 2
    ),
    "levy-gauss-clipped": lambda: sample_noise_flat(_CLIPPED, 300, CounterRng(8), 4),
    "gaussian": lambda: sample_noise_flat(
        NoiseSpec(family="gaussian", sigma=0.7), 1001, CounterRng(6), 2
    ),
    "bounded-uniform": lambda: sample_noise_flat(
        NoiseSpec(family="bounded-uniform", epsilon_bound=0.4), 1000, CounterRng(7), 2, offset=3
    ),
}
_GOLDEN_SHA256 = {
    "uniform": "6f10510bcd7a0e093d83453a9a00245bf473af762b27deaa8ad53e9545a25f59",
    "uniform-multipart-key": "982f24099fbd8c814e486a9a369f3dac98310f9ed0ca53000c7c4f03223da37f",
    "uniform-offset-wraps": "5b8684969d8af59f951ac53b61cb5abcaebb73d367f1d5f9f1fb4addea75e2e3",
    "normal-odd": "9d2a169e08f343889fa8f1589290f6d47050d612a0f28c2a02889449ecd4923e",
    "normal-even": "7d3263b38b945c0973c0d61c5d07f94511efa334fca0a4aa0a8c90ead82f8413",
    "gamma": "9f69b2e6b9b115dbe5e32471fe66422f17e46af1a0db7033cafe8eeff3d5db1e",
    "gamma-small-shape": "79588f08478b7bdebea72a3250cc66320069e0b0a8d8e59c8fc92bd7dc3619e4",
    "levy-gauss": "9f1cb7ae0adf192b366f215592e39c8e9a29c7f292ca8bc9c0355b0bd98c589d",
    "levy-gauss-eps-0.1": "82e9a0dc1bb289b18a710ee32e22d3e1c12b3c9785cc14175d9b74ac9f5b75a4",
    "levy-gauss-eps-0.3": "09daed8f43bc90903068f24f5dca161ae2512dad2cece8d6fcbbaad9f3dd00c0",
    "levy-gauss-clipped": "cad00dfacb6f41c522434f2a408da878b67acb85f7193b0b8df255a77c0c46c8",
    "gaussian": "b0e57cca5bb500e2b137d6a19eee5f652aa153267af947642c9b2eec2f3ac6d2",
    "bounded-uniform": "6f18696506833281962b65ba185bb3c6717daac4cee5beae2926d9702ebe9422",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_DRAWS))
def test_golden_digest(name):
    values = _GOLDEN_DRAWS[name]()
    assert values.dtype == np.float64
    assert hashlib.sha256(values.tobytes()).hexdigest() == _GOLDEN_SHA256[name]
