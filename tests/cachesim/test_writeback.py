"""Tests for write-back modeling (dirty lines, write-back traffic)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cachesim.cache import CacheConfig
from repro.cachesim.hierarchy import MemoryHierarchy
from repro.cachesim.machines import PENTIUM4
from repro.cachesim.model import simulate_cost
from repro.cachesim.trace import TraceBuilder
from repro.kernels import generate_dataset, make_kernel_data
from repro.runtime.executor import emit_trace
from tests.cachesim.oracle import SetAssociativeCache


def cache(size=128, line=64, ways=1):
    return SetAssociativeCache(CacheConfig("t", size, line, ways))


class TestDirtyTracking:
    def test_clean_eviction_no_writeback(self):
        c = cache()  # 2 sets x 1 way; lines 0 and 2 conflict
        result = c.access_lines([0, 2], [False, False])
        assert result.stats.writebacks == 0

    def test_dirty_eviction_counts(self):
        c = cache()
        result = c.access_lines([0, 2], [True, False])
        assert result.stats.writebacks == 1
        assert list(result.writeback_lines) == [0]

    def test_write_hit_marks_dirty(self):
        c = cache()
        result = c.access_lines([0, 0, 2], [False, True, False])
        assert result.stats.writebacks == 1

    def test_rewritten_line_writes_back_once(self):
        c = cache()
        result = c.access_lines([0, 0, 0, 2], [True, True, True, False])
        assert result.stats.writebacks == 1

    def test_flush_dirty(self):
        c = cache(size=256, line=64, ways=2)
        c.access_lines([0, 1], [True, True])
        assert set(c.flush_dirty()) == {0, 1}
        assert len(c.flush_dirty()) == 0

    def test_no_writes_arg_means_no_tracking(self):
        c = cache()
        result = c.access_lines([0, 2, 0])
        assert result.stats.writebacks == 0
        assert len(result.writeback_lines) == 0


class TestHierarchyWriteback:
    def test_l2_absorbs_l1_writebacks(self):
        h = MemoryHierarchy(
            [
                CacheConfig("L1", 128, 64, 1),
                CacheConfig("L2", 4096, 64, 4),
            ]
        )
        lines = np.array([0, 2, 0, 2])
        writes = np.array([True, True, True, True])
        result = h.simulate_lines(lines, writes)
        # L1 thrashes; its dirty evictions reach L2 as writes, and L2 is
        # big enough to keep everything: no memory writebacks.
        assert result.level_stats[0].writebacks >= 2
        assert result.memory_writebacks == 0

    def test_memory_writebacks_from_last_level(self):
        h = MemoryHierarchy([CacheConfig("L1", 128, 64, 1)])
        result = h.simulate_lines(
            np.array([0, 2, 0, 2]), np.array([True, True, True, True])
        )
        assert result.memory_writebacks >= 2

    def test_default_read_only_unchanged(self):
        h = MemoryHierarchy([CacheConfig("L1", 128, 64, 1)])
        a = h.simulate_lines(np.array([0, 1, 2, 3]))
        assert a.memory_writebacks == 0


class TestTraceWrites:
    def test_builder_tracks_flags(self):
        b = TraceBuilder()
        b.add_region("a", 8, 8)
        b.touch("a", np.array([0, 1]), write=True)
        b.touch("a", np.array([2]), write=False)
        trace = b.build()
        assert list(trace.writes) == [True, True, False]

    def test_no_flags_means_none(self):
        b = TraceBuilder()
        b.add_region("a", 8, 8)
        b.touch("a", np.array([0]))
        assert b.build().writes is None

    def test_line_expansion_replicates_flags(self):
        b = TraceBuilder()
        b.add_region("wide", 4, 72)  # spans two 64-byte lines
        b.touch("wide", np.array([1]), write=True)
        b.touch("wide", np.array([0]), write=False)
        trace = b.build()
        lines, writes = trace.line_sequence_with_writes(64)
        assert len(lines) == len(writes)
        assert writes[: len(writes) // 2].all()  # first record's lines

    def test_emit_trace_mark_writes(self):
        data = make_kernel_data("moldyn", generate_dataset("mol1", scale=256))
        trace = emit_trace(data, mark_writes=True)
        assert trace.writes is not None
        names = [r.name for r in trace.regions]
        inter_rid = names.index("inters")
        # interaction records are never written
        assert not trace.writes[trace.region_ids == inter_rid].any()
        # node records in this kernel are updated everywhere
        node_rid = names.index("nodes")
        assert trace.writes[trace.region_ids == node_rid].all()


class TestWritebackCostModel:
    def test_writeback_pricing_increases_cost(self):
        # auto at scale 32 overflows the Pentium4's 256 KB L2, so dirty
        # lines actually reach memory (foil at small scales fits L2 and
        # correctly produces zero memory write-backs).
        data = make_kernel_data("irreg", generate_dataset("auto", scale=32))
        trace = emit_trace(data, mark_writes=True)
        priced = replace(PENTIUM4, writeback_memory_cycles=60)
        base = simulate_cost(trace, PENTIUM4)
        with_wb = simulate_cost(trace, priced)
        assert with_wb.result.memory_writebacks > 0
        assert with_wb.cycles > base.cycles

    def test_conclusions_robust_under_writeback_pricing(self):
        """gpart still beats cpack when stores are priced."""
        from repro.eval.compositions import composition_steps
        from repro.runtime.inspector import ComposedInspector

        data = make_kernel_data("irreg", generate_dataset("foil", scale=64))
        machine = replace(PENTIUM4, writeback_memory_cycles=60)
        costs = {}
        for comp in ("baseline", "cpack", "gpart"):
            steps = composition_steps(comp, data, machine)
            if steps:
                result = ComposedInspector(steps).run(data)
                trace = emit_trace(result.transformed, result.plan, mark_writes=True)
            else:
                trace = emit_trace(data, mark_writes=True)
            costs[comp] = simulate_cost(trace, machine).cycles
        assert costs["gpart"] < costs["cpack"] < costs["baseline"]
