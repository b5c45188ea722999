"""The per-access LRU loop: the test oracle of the cache simulator.

:func:`repro.cachesim.simd.simulate_level` resolves whole traces with a
constant number of NumPy passes.  This module walks the same trace one
access at a time with an explicit most-recently-used list per set, which
is slow but obviously exact; the property tests compare the two on hits,
misses, miss order and write-back traffic.  The list operations are
O(associativity) per access, and associativity is small.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.cachesim.cache import CacheConfig, CacheStats, SimResult


class SetAssociativeCache:
    """One LRU cache level operating on line numbers."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._num_sets = config.num_sets
        self._assoc = config.associativity
        self.reset()

    def reset(self) -> None:
        # Per set: most-recently-used first.
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]
        # Lines currently cached in modified state (write-back tracking).
        self._dirty: set = set()

    def access_lines(
        self, lines: Iterable[int], writes: Optional[Iterable[bool]] = None
    ) -> "SimResult":
        """Run a sequence of line numbers; return stats + the miss lines.

        Miss lines are returned in order so the next level of the
        hierarchy can consume them directly.  With ``writes`` (a parallel
        boolean sequence) the cache tracks dirty lines write-back style:
        evicting a modified line counts a writeback and reports the line,
        so the next level can absorb the store traffic.
        """
        num_sets = self._num_sets
        assoc = self._assoc
        sets = self._sets
        misses: List[int] = []
        append_miss = misses.append
        accesses = 0

        if writes is None:
            for line in lines:
                accesses += 1
                ways = sets[line % num_sets]
                try:
                    ways.remove(line)
                except ValueError:
                    append_miss(line)
                    if len(ways) >= assoc:
                        ways.pop()
                ways.insert(0, line)
            return SimResult(
                stats=CacheStats(accesses=accesses, misses=len(misses)),
                miss_lines=np.asarray(misses, dtype=np.int64),
            )

        dirty = self._dirty
        writeback_count = 0
        # Downstream events in occurrence order: fills (reads) and dirty
        # evictions (writes), preserving the temporal interleaving the
        # next level needs for its own dirty tracking.
        down_lines: List[int] = []
        down_writes: List[bool] = []
        for line, is_write in zip(lines, writes):
            accesses += 1
            ways = sets[line % num_sets]
            try:
                ways.remove(line)
            except ValueError:
                append_miss(line)
                down_lines.append(line)
                down_writes.append(False)
                if len(ways) >= assoc:
                    evicted = ways.pop()
                    if evicted in dirty:
                        dirty.discard(evicted)
                        writeback_count += 1
                        down_lines.append(evicted)
                        down_writes.append(True)
            ways.insert(0, line)
            if is_write:
                dirty.add(line)
        return SimResult(
            stats=CacheStats(
                accesses=accesses,
                misses=len(misses),
                writebacks=writeback_count,
            ),
            miss_lines=np.asarray(misses, dtype=np.int64),
            writeback_lines=np.asarray(
                [l for l, w in zip(down_lines, down_writes) if w],
                dtype=np.int64,
            ),
            downstream_lines=np.asarray(down_lines, dtype=np.int64),
            downstream_writes=np.asarray(down_writes, dtype=bool),
        )

    def flush_dirty(self) -> np.ndarray:
        """Write back every currently dirty line (end-of-run accounting)."""
        out = np.asarray(sorted(self._dirty), dtype=np.int64)
        self._dirty.clear()
        return out


def simulate_level(
    config: CacheConfig,
    lines: np.ndarray,
    writes: Optional[np.ndarray] = None,
) -> SimResult:
    """Drop-in for :func:`repro.cachesim.simd.simulate_level` (cold cache)."""
    return SetAssociativeCache(config).access_lines(lines, writes)
