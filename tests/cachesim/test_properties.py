"""Property-based tests for the cache simulator's invariants."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.cachesim.cache import CacheConfig
from repro.cachesim.hierarchy import MemoryHierarchy
from tests.cachesim.oracle import SetAssociativeCache


@st.composite
def traces(draw, max_lines=64, max_len=300):
    n_lines = draw(st.integers(1, max_lines))
    length = draw(st.integers(0, max_len))
    return draw(
        st.lists(st.integers(0, n_lines - 1), min_size=length, max_size=length)
    )


@st.composite
def geometries(draw):
    line = 64
    ways = draw(st.sampled_from([1, 2, 4]))
    sets = draw(st.sampled_from([1, 2, 4, 8]))
    return CacheConfig("t", sets * ways * line, line, ways)


class TestCacheInvariants:
    @given(traces(), geometries())
    @settings(max_examples=80, deadline=None)
    def test_misses_bounded(self, lines, config):
        result = SetAssociativeCache(config).access_lines(lines)
        assert 0 <= result.stats.misses <= len(lines)
        assert result.stats.accesses == len(lines)
        # cold misses: at least one per distinct line
        assert result.stats.misses >= len(set(lines)) > 0 or not lines

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_bigger_cache_never_misses_more(self, lines):
        """LRU inclusion: doubling the way count cannot increase misses
        (same set count, so each set's LRU stack just deepens)."""
        small = SetAssociativeCache(CacheConfig("s", 4 * 2 * 64, 64, 2))
        large = SetAssociativeCache(CacheConfig("l", 4 * 4 * 64, 64, 4))
        m_small = small.access_lines(lines).stats.misses
        m_large = large.access_lines(lines).stats.misses
        assert m_large <= m_small

    @given(traces(), geometries())
    @settings(max_examples=60, deadline=None)
    def test_miss_lines_match_count(self, lines, config):
        result = SetAssociativeCache(config).access_lines(lines)
        assert len(result.miss_lines) == result.stats.misses

    @given(traces(), geometries())
    @settings(max_examples=60, deadline=None)
    def test_repeating_trace_saturates(self, lines, config):
        """The second identical pass can never miss more than the first."""
        cache = SetAssociativeCache(config)
        first = cache.access_lines(lines).stats.misses
        second = cache.access_lines(lines).stats.misses
        assert second <= first


class TestWritebackInvariants:
    @given(traces(), geometries(), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_writebacks_bounded_by_writes(self, lines, config, seed):
        rng = np.random.default_rng(seed)
        writes = rng.random(len(lines)) < 0.5
        cache = SetAssociativeCache(config)
        result = cache.access_lines(lines, writes.tolist())
        # each write-back needs a prior write
        assert result.stats.writebacks <= int(writes.sum())
        # and a prior eviction
        assert result.stats.writebacks <= result.stats.misses
        # downstream stream = fills + writebacks in order
        assert len(result.downstream_lines) == (
            result.stats.misses + result.stats.writebacks
        )
        assert int(result.downstream_writes.sum()) == result.stats.writebacks

    @given(traces(), geometries())
    @settings(max_examples=40, deadline=None)
    def test_write_tracking_does_not_change_miss_behavior(self, lines, config):
        plain = SetAssociativeCache(config).access_lines(lines)
        tracked = SetAssociativeCache(config).access_lines(
            lines, [True] * len(lines)
        )
        assert plain.stats.misses == tracked.stats.misses
        assert np.array_equal(plain.miss_lines, tracked.miss_lines)

    @given(traces())
    @settings(max_examples=40, deadline=None)
    def test_hierarchy_conservation(self, lines):
        """Every level's accesses equal the previous level's misses (+
        write-backs when tracked)."""
        h = MemoryHierarchy(
            [
                CacheConfig("L1", 2 * 64, 64, 1),
                CacheConfig("L2", 8 * 64, 64, 2),
            ]
        )
        arr = np.asarray(lines, dtype=np.int64)
        writes = np.ones(len(arr), dtype=bool)
        result = h.simulate_lines(arr, writes)
        l1 = result.level_stats[0]
        l2 = result.level_stats[1]
        assert l2.accesses == l1.misses + l1.writebacks
        assert result.memory_accesses == l2.misses
        assert result.memory_writebacks == l2.writebacks
