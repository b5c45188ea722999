"""Cache geometry and the result types of one simulated cache level.

Addresses are processed in **line units** (``byte_address >> log2(line)``),
which lets a two-level hierarchy pass L1 miss lines straight to L2 with a
shift.  The engine that fills these results is
:func:`repro.cachesim.simd.simulate_level`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    associativity: int

    def __post_init__(self):
        for field_name in ("size_bytes", "line_bytes", "associativity"):
            value = getattr(self, field_name)
            if value <= 0:
                raise ValueError(f"{field_name} must be positive")
        if not _is_power_of_two(self.line_bytes):
            raise ValueError("line_bytes must be a power of two")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                "size must be a multiple of line_bytes * associativity"
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    @property
    def line_shift(self) -> int:
        return self.line_bytes.bit_length() - 1


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0
    #: Dirty lines evicted (write-back traffic to the next level); only
    #: populated when the access stream carries write flags.
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.accesses + other.accesses,
            self.misses + other.misses,
            self.writebacks + other.writebacks,
        )


@dataclass
class SimResult:
    stats: CacheStats
    miss_lines: np.ndarray
    writeback_lines: np.ndarray = None  # type: ignore[assignment]
    #: Fills + write-backs in occurrence order (write-tracking runs only).
    downstream_lines: np.ndarray = None  # type: ignore[assignment]
    downstream_writes: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.writeback_lines is None:
            self.writeback_lines = np.empty(0, dtype=np.int64)
        if self.downstream_lines is None:
            self.downstream_lines = self.miss_lines
            self.downstream_writes = np.zeros(
                len(self.miss_lines), dtype=bool
            )
