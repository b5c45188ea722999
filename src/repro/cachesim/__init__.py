"""Memory-hierarchy simulator: the hardware substrate of the reproduction.

The paper measures wall-clock time on an IBM Power3 and an Intel
Pentium 4.  Locality gains are invisible in pure-Python wall-clock time
(interpreter overhead dominates), so this package simulates the memory
hierarchy instead: executors emit **address traces**
(:mod:`repro.cachesim.trace`), which run through set-associative LRU
caches (:mod:`repro.cachesim.simd`) stacked into two-level hierarchies
(:mod:`repro.cachesim.hierarchy`).  A cost model
(:mod:`repro.cachesim.model`) converts hits/misses into a cycle count used
as the "execution time" in every figure.

:mod:`repro.cachesim.machines` defines the two machine models —
Power3-like (large L1, 128 B lines) and Pentium4-like (tiny L1, 64 B
lines) — scaled together with the datasets so the decisive ratios
(data size : cache size, record bytes : line bytes) match the paper's.
"""

from repro.cachesim.cache import CacheConfig, CacheStats
from repro.cachesim.hierarchy import HierarchyResult, MemoryHierarchy
from repro.cachesim.machines import MACHINES, Machine, machine_by_name
from repro.cachesim.simd import classify_hits, simulate_level
from repro.cachesim.trace import AccessTrace, TraceBuilder
from repro.cachesim.model import simulate_cost

__all__ = [
    "CacheConfig",
    "CacheStats",
    "MemoryHierarchy",
    "HierarchyResult",
    "classify_hits",
    "simulate_level",
    "Machine",
    "MACHINES",
    "machine_by_name",
    "AccessTrace",
    "TraceBuilder",
    "simulate_cost",
]
