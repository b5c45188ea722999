"""The two machine models of the evaluation.

The paper runs on a 375 MHz IBM Power3 (64 KB L1, 128 B lines) and a
1.7 GHz Intel Pentium 4 (8 KB L1, 64 B lines).  Cache geometries here are
the **real** ones — line counts and line sizes drive the qualitative
results (e.g. moldyn's 72 B record vs the P4's 64 B line) — while the
datasets are scaled down (see :mod:`repro.kernels.datasets`), which keeps
the data : L1 ratios within the same "far larger than L1" regime as the
paper.

Latencies are round numbers in core cycles; only their ordering and rough
magnitude matter for the normalized figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cachesim.cache import CacheConfig
from repro.cachesim.hierarchy import HierarchyResult, MemoryHierarchy


@dataclass(frozen=True)
class Machine:
    """A named memory hierarchy plus its cost model."""

    name: str
    levels: Tuple[CacheConfig, ...]
    #: Cycles charged per hit at each level (same length as ``levels``).
    hit_cycles: Tuple[int, ...]
    #: Cycles charged per access served by memory.
    memory_cycles: int
    #: Cycles charged per element an inspector touches (overhead model:
    #: inspectors stream index arrays and write reordering functions; this
    #: blends a hit with an amortized miss per line's worth of elements).
    inspector_touch_cycles: float
    #: Cycles charged per dirty line written back to memory (0 disables
    #: write-back pricing; traces without write flags never incur it).
    writeback_memory_cycles: int = 0

    def hierarchy(self) -> MemoryHierarchy:
        """The machine's memory hierarchy."""
        return MemoryHierarchy(self.levels)

    @property
    def l1(self) -> CacheConfig:
        return self.levels[0]

    def cost_cycles(self, result: HierarchyResult) -> int:
        """Total data-access cycles of a simulated trace."""
        total = 0
        for config_idx, stats in enumerate(result.level_stats):
            total += stats.hits * self.hit_cycles[config_idx]
        total += result.memory_accesses * self.memory_cycles
        total += result.memory_writebacks * self.writeback_memory_cycles
        return total

    def inspector_cycles(self, touches: int) -> float:
        """Modeled cost of an inspector that touches ``touches`` elements."""
        return touches * self.inspector_touch_cycles


POWER3 = Machine(
    name="power3",
    levels=(
        CacheConfig("L1", size_bytes=64 * 1024, line_bytes=128, associativity=8),
        CacheConfig("L2", size_bytes=512 * 1024, line_bytes=128, associativity=8),
    ),
    hit_cycles=(1, 9),
    memory_cycles=35,
    # 8-byte elements, 128-byte lines: a streaming pass misses every 16th
    # element; charge 1 + 35/16 ~ 3.2 cycles, doubled for the irregular
    # half of inspector traffic.
    inspector_touch_cycles=6.0,
)

PENTIUM4 = Machine(
    name="pentium4",
    levels=(
        CacheConfig("L1", size_bytes=8 * 1024, line_bytes=64, associativity=4),
        CacheConfig("L2", size_bytes=256 * 1024, line_bytes=64, associativity=8),
    ),
    hit_cycles=(2, 18),
    memory_cycles=120,
    # 64-byte lines: a streaming miss every 8 elements: 2 + 120/8 = 17,
    # halved against the cheap sequential majority.
    inspector_touch_cycles=12.0,
)

MACHINES: Dict[str, Machine] = {m.name: m for m in (POWER3, PENTIUM4)}


def machine_by_name(name: str) -> Machine:
    try:
        return MACHINES[name]
    except KeyError:
        raise KeyError(
            f"unknown machine {name!r}; choose from {sorted(MACHINES)}"
        ) from None
