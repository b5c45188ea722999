"""Address traces: what executors emit and caches consume.

A trace is a sequence of **record accesses**: (region, element) pairs,
where a region is a contiguous memory area (the regrouped node records,
the interaction records, ...) and an element is a record index within it.
Regions model inter-array data regrouping [8]: the baseline and every
transformed executor access one node *record* per touched node, sized by
the benchmark's per-node payload.

``AccessTrace.line_sequence(line_bytes)`` lays regions out back to back
(page-aligned) and expands each record access into the cache line(s) it
covers — a 72-byte moldyn record straddles two 64-byte lines whenever it
is not line-aligned, which is exactly the Pentium-4 effect the paper
discusses in Section 2.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

_REGION_ALIGN = 4096


@dataclass(frozen=True)
class Region:
    """A contiguous memory area of fixed-size records."""

    name: str
    num_records: int
    record_bytes: int

    @property
    def size_bytes(self) -> int:
        return self.num_records * self.record_bytes


class TraceBuilder:
    """Accumulates record accesses region by region, in program order.

    Accesses may carry write flags (``write=...``); traces with any write
    information expose an aligned boolean ``writes`` array, which the
    cache hierarchy uses for write-back accounting.
    """

    def __init__(self):
        self._regions: Dict[str, Region] = {}
        self._region_ids: Dict[str, int] = {}
        self._chunks: List[Tuple[np.ndarray, np.ndarray, object]] = []
        self._any_writes = False

    def add_region(self, name: str, num_records: int, record_bytes: int) -> None:
        if name in self._regions:
            raise ValueError(f"region {name!r} already declared")
        self._regions[name] = Region(name, int(num_records), int(record_bytes))
        self._region_ids[name] = len(self._region_ids)

    def touch(self, region: str, elements: np.ndarray, write: bool = False) -> None:
        """Append accesses to ``region`` at the given record indices."""
        rid = self._region_ids[region]
        elements = np.asarray(elements, dtype=np.int64)
        self._any_writes |= bool(write)
        self._chunks.append(
            (np.full(len(elements), rid, dtype=np.int64), elements, bool(write))
        )

    def touch_interleaved(
        self,
        regions: List[str],
        columns: List[np.ndarray],
        writes: Optional[List[bool]] = None,
    ) -> None:
        """Append column-interleaved accesses: for each row r, touch
        ``regions[0][columns[0][r]], regions[1][columns[1][r]], ...`` —
        the j-loop pattern (interaction record, left node, right node).
        ``writes`` optionally flags each column as stores."""
        if len(regions) != len(columns):
            raise ValueError("regions and columns must pair up")
        if writes is not None and len(writes) != len(regions):
            raise ValueError("writes must pair up with regions")
        if len(regions) == 1:  # a plain sweep: one chunk, one flag
            return self.touch(
                regions[0], columns[0], bool(writes and writes[0])
            )
        n = len(columns[0])
        width = len(regions)
        rids = np.empty(n * width, dtype=np.int64)
        elems = np.empty(n * width, dtype=np.int64)
        wr = None
        if writes is not None and any(writes):
            wr = np.empty(n * width, dtype=bool)
            self._any_writes = True
        for idx, (region, col) in enumerate(zip(regions, columns)):
            col = np.asarray(col, dtype=np.int64)
            if len(col) != n:
                raise ValueError("columns must have equal length")
            rids[idx::width] = self._region_ids[region]
            elems[idx::width] = col
            if wr is not None:
                wr[idx::width] = writes[idx]
        self._chunks.append((rids, elems, wr if wr is not None else False))

    def region_id(self, name: str) -> int:
        """Numeric id of a declared region (for :meth:`touch_mixed`)."""
        return self._region_ids[name]

    def touch_mixed(self, region_ids: np.ndarray, elements: np.ndarray) -> None:
        """Append a pre-built chunk mixing regions in arbitrary order.

        Use :meth:`region_id` to resolve names; this is the escape hatch
        for irregular interleavings (e.g. Gauss--Seidel's variable-degree
        update pattern).
        """
        region_ids = np.asarray(region_ids, dtype=np.int64)
        elements = np.asarray(elements, dtype=np.int64)
        if region_ids.shape != elements.shape:
            raise ValueError("region_ids and elements must align")
        if len(region_ids) and (
            region_ids.min() < 0 or region_ids.max() >= len(self._region_ids)
        ):
            raise ValueError("region id out of range")
        self._chunks.append((region_ids, elements, False))

    def build(self) -> "AccessTrace":
        if self._chunks:
            region_ids = np.concatenate([c[0] for c in self._chunks])
            elements = np.concatenate([c[1] for c in self._chunks])
        else:
            region_ids = np.empty(0, dtype=np.int64)
            elements = np.empty(0, dtype=np.int64)
        writes = None
        if self._any_writes:
            pieces = []
            for rids, _elems, w in self._chunks:
                if isinstance(w, np.ndarray):
                    pieces.append(w)
                else:
                    pieces.append(np.full(len(rids), bool(w), dtype=bool))
            writes = (
                np.concatenate(pieces) if pieces else np.empty(0, dtype=bool)
            )
        ordered = [None] * len(self._region_ids)
        for name, rid in self._region_ids.items():
            ordered[rid] = self._regions[name]
        return AccessTrace(tuple(ordered), region_ids, elements, writes)


@dataclass
class AccessTrace:
    """An ordered sequence of record accesses across several regions.

    ``writes`` (optional) is an aligned boolean array marking stores;
    ``None`` means the trace carries no store information (the default
    cost model, which prices loads only).
    """

    regions: Tuple[Region, ...]
    region_ids: np.ndarray
    elements: np.ndarray
    writes: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.region_ids)

    def total_bytes(self) -> int:
        """Footprint of all regions (the paper's per-dataset MB labels)."""
        return sum(r.size_bytes for r in self.regions)

    def _region_bases(self) -> np.ndarray:
        bases = np.zeros(len(self.regions), dtype=np.int64)
        addr = 0
        for idx, region in enumerate(self.regions):
            bases[idx] = addr
            addr += region.size_bytes
            addr = (addr + _REGION_ALIGN - 1) // _REGION_ALIGN * _REGION_ALIGN
        return bases

    def byte_starts(self) -> Tuple[np.ndarray, np.ndarray]:
        """(start byte address, record bytes) per access."""
        bases = self._region_bases()
        record_bytes = np.array(
            [r.record_bytes for r in self.regions], dtype=np.int64
        )
        rb = record_bytes[self.region_ids]
        starts = bases[self.region_ids] + self.elements * rb
        return starts, rb

    def _expanded_lines(
        self, line_bytes: int
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Per-access first line numbers plus the expansion layout.

        Returns ``(first, counts, pos)`` where ``counts`` is how many
        lines each record touches and ``pos`` its offset in the expanded
        stream; both are ``None`` when every record fits one line (the
        expanded stream is then ``first`` itself).
        """
        shift = int(line_bytes).bit_length() - 1
        if (1 << shift) != line_bytes:
            raise ValueError("line_bytes must be a power of two")
        starts, rb = self.byte_starts()
        first = starts >> shift
        counts = ((starts + rb - 1) >> shift) - first + 1
        if int(counts.max()) == 1:
            return first, None, None
        return first, counts, np.cumsum(counts) - counts

    def line_sequence(self, line_bytes: int) -> np.ndarray:
        """Expand record accesses into cache-line numbers, in order.

        A record spanning multiple lines contributes one access per line
        (consecutively), modeling the extra traffic of records wider than
        — or misaligned with — the cache line.  Records span few lines,
        so the expansion scatters one pass per extra line instead of
        paying the ragged ``repeat``/``arange`` machinery.
        """
        if len(self) == 0:
            return np.empty(0, dtype=np.int64)
        first, counts, pos = self._expanded_lines(line_bytes)
        if counts is None:
            return first
        out = np.empty(int(counts.sum()), dtype=np.int64)
        out[pos] = first
        for k in range(1, int(counts.max())):
            sel = np.flatnonzero(counts > k)
            out[pos[sel] + k] = first[sel] + k
        return out

    def line_sequence_with_writes(
        self, line_bytes: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`line_sequence` but also expands the write flags
        (every line of a written record counts as written)."""
        lines = self.line_sequence(line_bytes)
        if self.writes is None:
            return lines, np.zeros(len(lines), dtype=bool)
        _first, counts, pos = self._expanded_lines(line_bytes)
        if counts is None:
            return lines, self.writes.copy()
        wout = np.empty(len(lines), dtype=bool)
        wout[pos] = self.writes
        for k in range(1, int(counts.max())):
            sel = np.flatnonzero(counts > k)
            wout[pos[sel] + k] = self.writes[sel]
        return lines, wout
