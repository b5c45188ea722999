"""Unit tests for the set-associative LRU cache and hierarchies."""

import numpy as np
import pytest

from repro.cachesim.cache import CacheConfig, CacheStats
from repro.cachesim.hierarchy import MemoryHierarchy
from tests.cachesim.oracle import SetAssociativeCache


def cache(size=1024, line=64, ways=2):
    return SetAssociativeCache(CacheConfig("t", size, line, ways))


class TestCacheConfig:
    def test_geometry(self):
        c = CacheConfig("L1", 8192, 64, 4)
        assert c.num_lines == 128
        assert c.num_sets == 32
        assert c.line_shift == 6

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            CacheConfig("b", 0, 64, 1)
        with pytest.raises(ValueError):
            CacheConfig("b", 1024, 48, 1)  # not power of two
        with pytest.raises(ValueError):
            CacheConfig("b", 100, 64, 1)  # not a multiple


class TestLRUBehavior:
    def test_cold_misses(self):
        result = cache().access_lines([0, 1, 2])
        assert result.stats.misses == 3
        assert result.stats.accesses == 3

    def test_repeat_hits(self):
        result = cache().access_lines([0, 0, 0, 0])
        assert result.stats.misses == 1
        assert result.stats.hits == 3

    def test_capacity_eviction(self):
        # 1 set x 2 ways: third distinct line evicts the LRU.
        c = cache(size=128, line=64, ways=2)
        result = c.access_lines([0, 1, 2, 0])
        # 0,1 cold; 2 evicts 0; 0 misses again.
        assert result.stats.misses == 4

    def test_lru_not_fifo(self):
        c = cache(size=128, line=64, ways=2)
        # access 0,1, touch 0 again (now MRU), insert 2 -> evicts 1.
        result = c.access_lines([0, 1, 0, 2, 0])
        assert result.stats.misses == 3  # 0,1,2 cold; final 0 hits

    def test_set_mapping_no_interference(self):
        # 2 sets x 1 way; lines 0 and 1 map to different sets.
        c = cache(size=128, line=64, ways=1)
        result = c.access_lines([0, 1, 0, 1])
        assert result.stats.misses == 2

    def test_conflict_same_set(self):
        # 2 sets x 1 way: lines 0 and 2 share set 0.
        c = cache(size=128, line=64, ways=1)
        result = c.access_lines([0, 2, 0, 2])
        assert result.stats.misses == 4

    def test_miss_lines_returned_in_order(self):
        result = cache().access_lines([5, 5, 7, 5, 9])
        assert list(result.miss_lines) == [5, 7, 9]

    def test_reset_clears_state(self):
        c = cache()
        c.access_lines([0])
        c.reset()
        assert c.access_lines([0]).stats.misses == 1

    def test_stats_addition(self):
        total = CacheStats(10, 4) + CacheStats(5, 1)
        assert total.accesses == 15 and total.misses == 5
        assert total.miss_rate == pytest.approx(1 / 3)

    def test_working_set_within_capacity_all_hits_after_warmup(self):
        c = cache(size=4096, line=64, ways=4)  # 64 lines
        lines = list(range(32)) * 10
        result = c.access_lines(lines)
        assert result.stats.misses == 32


class TestHierarchy:
    def test_l2_sees_only_l1_misses(self):
        h = MemoryHierarchy(
            [
                CacheConfig("L1", 128, 64, 2),
                CacheConfig("L2", 1024, 64, 2),
            ]
        )
        result = h.simulate_lines(np.array([0, 0, 1, 1, 2, 2]))
        assert result.level_stats[0].accesses == 6
        assert result.level_stats[0].misses == 3
        assert result.level_stats[1].accesses == 3

    def test_memory_accesses_are_last_level_misses(self):
        h = MemoryHierarchy([CacheConfig("L1", 128, 64, 2)])
        result = h.simulate_lines(np.array([0, 1, 2, 3]))
        assert result.memory_accesses == 4

    def test_line_rescaling_between_levels(self):
        h = MemoryHierarchy(
            [
                CacheConfig("L1", 128, 64, 2),
                CacheConfig("L2", 2048, 128, 2),  # double line size
            ]
        )
        # L1 lines 0 and 1 are the same 128-byte L2 line.
        result = h.simulate_lines(np.array([0, 2, 4, 6, 1]))
        # all L1 cold misses; L2 sees lines 0,1,2,3,0 -> 4 misses, 1 hit
        assert result.level_stats[1].accesses == 5
        assert result.level_stats[1].misses == 4

    def test_decreasing_line_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(
                [
                    CacheConfig("L1", 128, 128, 2),
                    CacheConfig("L2", 1024, 64, 2),
                ]
            )

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ValueError):
            MemoryHierarchy([])
