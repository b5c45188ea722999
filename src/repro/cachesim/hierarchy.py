"""Multi-level cache hierarchies and the machine cost model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cachesim.cache import CacheConfig, CacheStats
from repro.cachesim.simd import simulate_level
from repro.cachesim.trace import AccessTrace

@dataclass
class HierarchyResult:
    """Per-level statistics of one trace simulation."""

    level_stats: List[CacheStats]
    #: Accesses that missed every level (served by memory).
    memory_accesses: int
    #: Dirty lines the last level wrote back to memory (0 unless the
    #: trace carried write flags).
    memory_writebacks: int = 0

    def level(self, idx: int) -> CacheStats:
        return self.level_stats[idx]


class MemoryHierarchy:
    """A stack of inclusive-enough LRU levels with increasing line sizes.

    Each level sees only the misses of the previous one (line numbers are
    rescaled between levels).  Levels must have non-decreasing line sizes.
    """

    def __init__(self, configs: Sequence[CacheConfig]):
        if not configs:
            raise ValueError("need at least one cache level")
        for a, b in zip(configs, configs[1:]):
            if b.line_bytes < a.line_bytes:
                raise ValueError("line sizes must be non-decreasing")
        self.configs = tuple(configs)

    def simulate_lines(
        self,
        lines: np.ndarray,
        writes: Optional[np.ndarray] = None,
    ) -> HierarchyResult:
        """Run first-level line numbers through the full hierarchy.

        With ``writes``, each level tracks dirty lines; the next level
        absorbs both the fills (reads) and the evicted write-backs
        (writes).  Write-backs are appended after the miss stream, a
        standard approximation of their drain timing.
        """
        stats: List[CacheStats] = []
        current = lines
        current_writes = writes
        prev_shift = self.configs[0].line_shift
        result = None
        for config in self.configs:
            shift = config.line_shift - prev_shift
            if shift:
                current = current >> shift
            result = simulate_level(config, current, current_writes)
            stats.append(result.stats)
            if current_writes is None:
                current = result.miss_lines
            else:
                # The next level sees the fills (reads) and the evicted
                # write-backs (writes) in their actual occurrence order.
                current = result.downstream_lines
                current_writes = result.downstream_writes
            prev_shift = config.line_shift
        return HierarchyResult(
            level_stats=stats,
            memory_accesses=len(result.miss_lines),
            memory_writebacks=(
                len(result.writeback_lines) if writes is not None else 0
            ),
        )

    def simulate_trace(self, trace: AccessTrace) -> HierarchyResult:
        line_bytes = self.configs[0].line_bytes
        if trace.writes is None:
            return self.simulate_lines(trace.line_sequence(line_bytes))
        lines, writes = trace.line_sequence_with_writes(line_bytes)
        return self.simulate_lines(lines, writes)
