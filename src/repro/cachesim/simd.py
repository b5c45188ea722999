"""Batched, vectorized set-associative LRU simulation.

The obvious LRU simulator walks the trace one access at a time (that
loop is kept as the test oracle, ``tests/cachesim/oracle.py``).  Exact
LRU nevertheless decomposes per cache set — an access hits iff fewer
than ``associativity`` distinct lines intervened since the previous
access to the same line *within its set* (the classic stack-distance
characterization), and accesses in different sets never interact.  This module resolves whole traces with NumPy in a constant
number of vectorized passes (no per-access and no per-wave Python loop):

1. **Partition by set**: ``set = line mod num_sets``, one stable (radix)
   argsort groups each set's accesses while preserving temporal order, so
   window arithmetic below runs in contiguous per-set coordinates.
2. **Previous occurrence**: a second radix argsort by dense line id links
   every access to the previous access of the same line, giving each
   access its *reuse window* ``(prev, i)``; the access hits iff that
   window holds fewer than ``w = associativity`` distinct lines.
3. **Cascade classification**, every tier exact:

   - ``gap < w`` — at most ``gap`` distinct intervening lines: **hit**;
   - the whole set holds ``<= w`` distinct lines — it can never
     overflow: **hit**;
   - ``gap <= C`` (a small window constant) — count the distinct
     intervening lines directly with one bounded gather: an intervening
     access ``k`` is the *first in-window occurrence* of its line iff
     ``prev[k] <= prev[i]``, so the count is a masked compare-sum;
   - ``gap > C`` — the trailing ``C`` accesses lie inside the reuse
     window; the number of distinct lines among them is an interval-
     stabbing count (two bincounts and a cumsum over difference arrays),
     and ``>= w`` of them prove a **miss**;
   - the rare leftovers are resolved exactly by probing, for each line
     of the set, whether its next occurrence after ``prev[i]`` falls
     before ``i`` — one batched ``searchsorted`` over per-line occurrence
     lists and a segmented sum.

The result is bit-identical to the per-access oracle on hits, misses,
and write-backs (property-tested in ``tests/cachesim/test_simd.py``).
Write-tracking traces run through a per-set lockstep variant that also
tracks the dirty bit of every stack slot, so victims and write-back
events come out in the oracle's exact occurrence order.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cachesim.cache import CacheConfig, CacheStats, SimResult

#: Floor for the exact-window constant ``C``: reuse gaps up to ``C`` are
#: resolved by direct counting, longer gaps by the trailing-window miss
#: test.  Larger windows shift work from the (rare-leftover) probe tier
#: to the bounded gather tier; at 32 the probe tier is empty on all the
#: evaluation workloads.
_MIN_WINDOW = 32

#: Dense (set, line) ids come from a boolean scatter table when the id
#: space is small enough; beyond this, a sort-based fallback builds them.
_TABLE_CAP = 1 << 22

#: Leftover probes are chunked so the (access x set-lines) query fan-out
#: never materializes more than this many elements at once.
_PROBE_CAP = 1 << 22


def _pick_window(w: int) -> int:
    return max(2 * w, _MIN_WINDOW)


_MALLOC_TUNED = False


def _tune_allocator() -> None:
    """Keep multi-megabyte NumPy temporaries on the heap.

    glibc serves allocations above its mmap threshold with a fresh
    mmap/munmap pair, so every large temporary in the cascade pays page
    faults on first touch; raising the threshold (and the matching trim
    threshold) lets free'd buffers be reused and roughly halves the
    engine's wall clock.  Best effort: silently skipped off glibc.
    """
    global _MALLOC_TUNED
    if _MALLOC_TUNED:
        return
    _MALLOC_TUNED = True
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 28)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 28)  # M_TRIM_THRESHOLD
    except Exception:
        pass


def classify_hits(
    lines: np.ndarray,
    num_sets: int,
    associativity: int,
    window: Optional[int] = None,
) -> np.ndarray:
    """Exact LRU hit mask (temporal order) for one cache level.

    ``lines`` is the level's access stream in line units; the returned
    boolean array marks the accesses that hit a ``num_sets`` x
    ``associativity`` LRU cache starting cold — bit-identical to the
    per-access oracle in ``tests/cachesim/oracle.py``.  ``window``
    overrides the exact-window constant (tuning knob, any value >= the
    associativity is valid).
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    n = lines.size
    hits = np.zeros(n, dtype=bool)
    if n == 0:
        return hits
    # Consecutive repeats of one line are depth-1 hits in any geometry and
    # leave every LRU stack unchanged; collapse them first (streaming
    # sweeps are full of them).
    _tune_allocator()
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    collapsed = lines[keep]
    hits[~keep] = True
    hits[keep] = _classify_stream(collapsed, num_sets, associativity, window)
    return hits


def _line_ids(
    lines: np.ndarray, num_sets: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense per-(set, line) ids in temporal order: ``(gid, set_of_gid)``.

    Ids are grouped by set — every set owns a contiguous id range — so a
    set's lines enumerate as ``base + arange`` and ``set_of_gid`` is
    non-decreasing.  Built from one boolean scatter table when the
    (set, tag) space is small (the common case), otherwise from a stable
    sort.
    """
    if num_sets & (num_sets - 1) == 0:
        sets = lines & (num_sets - 1)
        tags = lines >> (int(num_sets).bit_length() - 1)
    else:
        sets = lines % num_sets
        tags = lines // num_sets
    tab_w = int(tags.max()) + 1
    if num_sets * tab_w <= _TABLE_CAP:
        flat = sets * tab_w + tags
        mark = np.zeros(num_sets * tab_w, dtype=bool)
        mark[flat] = True
        slots = np.flatnonzero(mark)  # ascending (set, tag)
        if slots.size <= 1 << 16:
            gtab = np.zeros(num_sets * tab_w, dtype=np.uint16)
        else:
            gtab = np.zeros(num_sets * tab_w, dtype=np.int64)
        gtab[slots] = np.arange(slots.size, dtype=gtab.dtype)
        set_of_gid = slots // tab_w
        if num_sets <= 1 << 16:
            set_of_gid = set_of_gid.astype(np.uint16)
        return gtab[flat], set_of_gid
    # Sparse id space: group by (set, line) with a stable sort instead.
    order = np.lexsort((tags, sets))
    new = np.empty(lines.size, dtype=bool)
    new[0] = True
    np.logical_or(
        sets[order][1:] != sets[order][:-1],
        tags[order][1:] != tags[order][:-1],
        out=new[1:],
    )
    gid = np.empty(lines.size, dtype=np.int64)
    gid[order] = np.cumsum(new) - 1
    return gid, sets[order][new]


def _classify_stream(
    lines: np.ndarray, num_sets: int, w: int, window: Optional[int]
) -> np.ndarray:
    """Hit mask for a (collapsed) stream, splitting off the sets that can
    never overflow: a set holding at most ``w`` distinct lines hits on
    every access but each line's first, with no simulation at all.  Only
    accesses to overflow-capable sets enter the cascade."""
    m = lines.size
    if m == 0:
        return np.zeros(0, dtype=bool)
    gid, set_of_gid = _line_ids(lines, num_sets)
    ids_per_set = np.bincount(set_of_gid, minlength=num_sets)
    small = (ids_per_set <= w) & (ids_per_set > 0)
    if not small.any():
        return _cascade(gid, set_of_gid, ids_per_set, num_sets, w, window)
    hits = np.empty(m, dtype=bool)
    small_access = small[set_of_gid][gid]
    idx = np.flatnonzero(small_access)
    if idx.size:
        # First occurrence of each line, no sorting: with a repeated
        # index the last scatter write wins, so writing positions in
        # reverse leaves each line's first position in the table.  (A
        # line's accesses all live in one set, so its first occurrence
        # within the small-set substream is its first occurrence, full
        # stop.)
        gs = gid[idx]
        ftab = np.empty(set_of_gid.size, dtype=np.int64)
        pos = np.arange(idx.size, dtype=np.int64)
        ftab[gs[::-1]] = pos[::-1]
        hits[idx] = ftab[gs] != pos
    sub = np.flatnonzero(~small_access)
    if sub.size:
        # The overflow sets keep their full access streams and all their
        # line ids, so the (sparse in id space) substream runs the
        # cascade against the unchanged id layout.
        hits[sub] = _cascade(
            gid[sub], set_of_gid, ids_per_set, num_sets, w, window
        )
    return hits


def _cascade(
    gid: np.ndarray,
    set_of_gid: np.ndarray,
    ids_per_set: np.ndarray,
    num_sets: int,
    w: int,
    window: Optional[int],
) -> np.ndarray:
    """Exact LRU classification via the reuse-window cascade (all sets
    overflow-capable).  ``gid`` is the temporal stream of dense line ids;
    coordinates below are set-sorted ("q") positions, in which each set's
    accesses are contiguous and temporally ordered."""
    m = gid.size
    C = window or _pick_window(w)
    key = set_of_gid[gid]  # set index per access
    order = np.argsort(key, kind="stable")  # radix for uint16 keys
    gid_q = gid[order]
    # Previous occurrence of each access's line, in q coords.  Sorting
    # the (set-grouped) ids is stable, so each line's occurrences stay
    # temporally ordered and adjacent.  First occurrences get a sentinel
    # "previous" far enough in the past that their gap lands in the long
    # tier, where they fall through as the misses they are.
    o2 = np.argsort(gid_q, kind="stable")
    g2 = gid_q[o2]
    same = g2[1:] == g2[:-1]
    # Positions fit int32 (streams are far below 2^31); the narrow value
    # arrays halve the memory traffic of the compare-heavy tiers.  Index
    # arrays stay int64 — NumPy would re-cast them per indexing call.
    p2 = np.full(m, -(C + 2), dtype=np.int32)
    np.copyto(p2[1:], o2[:-1], where=same, casting="unsafe")
    prev = np.empty(m, dtype=np.int32)
    prev[o2] = p2
    q = np.arange(m, dtype=np.int32)
    gap = q - prev - 1  # in-set accesses between the two occurrences

    # Tier 1: short reuse gaps cannot overflow the set: hit.
    hits_q = gap < w
    # Tier 2: medium gaps — count the distinct intervening lines
    # directly: an intervening access k is its line's first in-window
    # occurrence iff prev[k] <= prev[i].
    med = np.flatnonzero((gap >= w) & (gap <= C))
    if med.size:
        # Sorted by gap, the accesses still needing depth delta form a
        # shrinking suffix, so the count accumulates in C strided 1-D
        # passes with no padding, masking, or 2-D temporaries.
        med_gap = gap[med]
        if C <= 0xFFFF:
            med_gap = med_gap.astype(np.uint16)  # radix-sortable
        med = med[np.argsort(med_gap, kind="stable")]
        gap_sorted = gap[med]
        suffix = np.searchsorted(gap_sorted, np.arange(1, C + 1))
        pbase = prev[med]
        acc = np.zeros(med.size, dtype=np.int32)
        kidx = med.copy()
        for delta in range(1, C + 1):
            s = suffix[delta - 1]
            if s == med.size:
                break
            ks = kidx[s:]
            ks -= 1  # in-place: kidx[j] tracks med[j] - delta
            acc[s:] += prev[ks] <= pbase[s:]
        hits_q[med] = acc < w
    # Tier 3: long gaps — if the trailing C in-set accesses already span
    # >= w distinct lines the window overflows: miss.  sw[i] counts the
    # k in [i-C, i-1] with prev[k] < i-C (that window's distinct lines)
    # by interval stabbing: k is counted by exactly the positions in
    # [max(k+1, prev[k]+C+1), k+C].  Contributions may leak past a set's
    # end, but only into positions whose own trailing window crosses the
    # set start — and a gap > C access sits at in-set position > C, so
    # the positions read below are never contaminated.
    rest = np.flatnonzero(gap > C)
    if rest.size:
        lo = prev.astype(np.int64) + (C + 1)
        np.maximum(lo, np.arange(1, m + 1, dtype=np.int64), out=lo)
        diff = np.bincount(lo, minlength=m + C + 2)
        diff[C + 1 : m + C + 1] -= 1  # every k leaves the window at k+C+1
        sw = np.cumsum(diff)[:m]
        leftover = rest[(sw[rest] < w) & (prev[rest] >= 0)]
        if leftover.size:
            gid_base = np.concatenate(([0], np.cumsum(ids_per_set)))[:-1]
            _probe_leftovers(
                hits_q, leftover, o2, g2, prev, key[order], gid_base,
                ids_per_set, set_of_gid.size, m, w,
            )
    hits = np.empty(m, dtype=bool)
    hits[order] = hits_q
    return hits


def _probe_leftovers(
    hits_q: np.ndarray,
    leftover: np.ndarray,
    o2: np.ndarray,
    g2: np.ndarray,
    prev: np.ndarray,
    s_sets: np.ndarray,
    gid_base: np.ndarray,
    ids_per_set: np.ndarray,
    num_ids: int,
    m: int,
    w: int,
) -> None:
    """Exact distinct-count for the cascade's leftovers.

    For each leftover access ``i`` and each line of its set, one probe
    answers "does the line occur inside ``(prev[i], i)``?" — the line's
    occurrence list is a contiguous slice of ``o2`` (sorted by line id,
    temporal inside), so a batched ``searchsorted`` finds the first
    occurrence after ``prev[i]`` and the hit test is a segmented sum of
    ``next < i``.  The access's own line auto-excludes (its next
    occurrence after ``prev[i]`` is ``i`` itself).
    """
    occ_end = np.cumsum(np.bincount(g2, minlength=num_ids))
    stride = np.int64(m + 1)
    keys = g2 * stride + o2
    fan = ids_per_set[s_sets[leftover]]
    step = max(1, _PROBE_CAP // max(1, int(fan.max())))
    for lo_i in range(0, leftover.size, step):
        sel = leftover[lo_i : lo_i + step]
        reps = fan[lo_i : lo_i + step]
        total = int(reps.sum())
        if total == 0:
            continue
        row = np.repeat(np.arange(sel.size, dtype=np.int64), reps)
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        gq = np.repeat(gid_base[s_sets[sel]], reps) + offs
        pos = np.searchsorted(keys, gq * stride + np.repeat(prev[sel], reps), side="right")
        inseg = pos < occ_end[gq]
        nxt = np.where(inseg, o2[np.minimum(pos, m - 1)], m)
        distinct = np.bincount(
            row, weights=(inseg & (nxt < np.repeat(sel, reps))).astype(np.float64),
            minlength=sel.size,
        )
        hits_q[sel] = distinct < w


def simulate_level_reads(
    config: CacheConfig, lines: np.ndarray, window: Optional[int] = None
) -> SimResult:
    """One cache level over a read-only line stream (vectorized)."""
    lines = np.asarray(lines, dtype=np.int64)
    hits = classify_hits(lines, config.num_sets, config.associativity, window)
    misses = lines[~hits]
    return SimResult(
        stats=CacheStats(accesses=int(lines.size), misses=int(misses.size)),
        miss_lines=misses,
    )


def simulate_level_writes(
    config: CacheConfig, lines: np.ndarray, writes: np.ndarray
) -> SimResult:
    """One cache level with write-back tracking (vectorized per set).

    Runs every set's access stream in lockstep (one Python iteration per
    within-set position), tracking dirty bits per stack slot, and emits
    fills and dirty evictions with the oracle's exact interleaving.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    writes = np.ascontiguousarray(writes, dtype=bool)
    n = lines.size
    w = config.associativity
    num_sets = config.num_sets
    if n == 0:
        return SimResult(
            stats=CacheStats(),
            miss_lines=np.empty(0, dtype=np.int64),
            writeback_lines=np.empty(0, dtype=np.int64),
            downstream_lines=np.empty(0, dtype=np.int64),
            downstream_writes=np.empty(0, dtype=bool),
        )
    sets = lines % num_sets
    counts = np.bincount(sets, minlength=num_sets)
    starts = np.concatenate(([0], np.cumsum(counts)))
    order = np.argsort(sets, kind="stable")
    # Within-set position of each access, in the set-sorted layout.
    local = np.arange(n, dtype=np.int64) - np.repeat(starts[:-1], counts)
    # Wave r = the r-th access of every set: group by within-set position,
    # mapped back to temporal indices (ties resolve in set order).
    ord_wave = order[np.argsort(local, kind="stable")]
    wave_counts = np.bincount(local)
    wave_starts = np.concatenate(([0], np.cumsum(wave_counts)))

    stack = np.full((num_sets, w), -1, dtype=np.int64)
    dirty = np.zeros((num_sets, w), dtype=bool)
    hits = np.zeros(n, dtype=bool)
    cols = np.arange(1, w, dtype=np.int64)[None, :]
    fill_pos: List[np.ndarray] = []
    wb_pos: List[np.ndarray] = []
    wb_line: List[np.ndarray] = []
    for r in range(len(wave_counts)):
        sel = ord_wave[wave_starts[r] : wave_starts[r + 1]]
        if sel.size == 0:
            break
        s = sets[sel]
        l = lines[sel]
        wr = writes[sel]
        st = stack[s]
        dt = dirty[s]
        eq = st == l[:, None]
        hit = eq.any(axis=1)
        hits[sel] = hit
        d = np.where(hit, eq.argmax(axis=1), w - 1) if w > 1 else np.zeros(
            len(sel), dtype=np.int64
        )
        carried = np.where(hit, dt[np.arange(len(sel)), d], False)
        miss = ~hit
        evicted = st[:, w - 1]
        evict_dirty = miss & (evicted >= 0) & dt[:, w - 1]
        if evict_dirty.any():
            wb_pos.append(sel[evict_dirty])
            wb_line.append(evicted[evict_dirty])
        if miss.any():
            fill_pos.append(sel[miss])
        if w > 1:
            shift = cols <= d[:, None]
            st[:, 1:] = np.where(shift, st[:, :-1], st[:, 1:])
            dt[:, 1:] = np.where(shift, dt[:, :-1], dt[:, 1:])
        st[:, 0] = l
        dt[:, 0] = carried | wr
        stack[s] = st
        dirty[s] = dt

    f_pos = np.concatenate(fill_pos) if fill_pos else np.empty(0, dtype=np.int64)
    b_pos = np.concatenate(wb_pos) if wb_pos else np.empty(0, dtype=np.int64)
    b_line = np.concatenate(wb_line) if wb_line else np.empty(0, dtype=np.int64)
    f_order = np.argsort(f_pos, kind="stable")
    b_order = np.argsort(b_pos, kind="stable")
    miss_lines = lines[np.sort(f_pos)]
    writeback_lines = b_line[b_order]
    # Downstream events in occurrence order: the fill of a missing access
    # precedes the dirty eviction it caused (same position; fills first).
    ev_pos = np.concatenate([f_pos[f_order] * 2, b_pos[b_order] * 2 + 1])
    ev_line = np.concatenate([miss_lines, writeback_lines])
    ev_write = np.concatenate(
        [np.zeros(len(f_pos), dtype=bool), np.ones(len(b_pos), dtype=bool)]
    )
    ev_order = np.argsort(ev_pos, kind="stable")
    return SimResult(
        stats=CacheStats(
            accesses=n, misses=int(len(f_pos)), writebacks=int(len(b_pos))
        ),
        miss_lines=miss_lines,
        writeback_lines=writeback_lines,
        downstream_lines=ev_line[ev_order],
        downstream_writes=ev_write[ev_order],
    )


def simulate_level(
    config: CacheConfig,
    lines: np.ndarray,
    writes: Optional[np.ndarray] = None,
    window: Optional[int] = None,
) -> SimResult:
    """Simulate one cold LRU level: hits, misses in order, and (with
    ``writes``) the write-back traffic the next level absorbs."""
    if writes is None:
        return simulate_level_reads(config, lines, window)
    return simulate_level_writes(config, lines, writes)
