"""Bit-identity property suite: the vectorized engine vs the oracle.

The vectorized simulator (:mod:`repro.cachesim.simd`) must agree with
the per-access oracle (``tests/cachesim/oracle.py``) *exactly* — same hits, same misses,
same miss-line streams, same write-backs — on every input.  These tests
drive both engines over Hypothesis-generated traces spanning the whole
geometry space (direct-mapped through 8-way, 1..8 sets, tiny stress
windows that force every cascade tier) and over two-level hierarchies
with and without write flags.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import hierarchy
from repro.cachesim.cache import CacheConfig
from repro.cachesim.hierarchy import MemoryHierarchy
from repro.cachesim.simd import classify_hits, simulate_level
from tests.cachesim import oracle
from tests.cachesim.oracle import SetAssociativeCache

pytestmark = pytest.mark.simd


def _config(num_sets: int, assoc: int, line_bytes: int = 64) -> CacheConfig:
    return CacheConfig(
        "L",
        size_bytes=num_sets * assoc * line_bytes,
        line_bytes=line_bytes,
        associativity=assoc,
    )


def _ref_hits(lines, num_sets, assoc) -> np.ndarray:
    """Straight-line LRU oracle: per-access hit mask."""
    sets = [OrderedDict() for _ in range(num_sets)]
    out = np.zeros(len(lines), dtype=bool)
    for i, ln in enumerate(lines):
        ln = int(ln)
        s = sets[ln % num_sets]
        if ln in s:
            s.move_to_end(ln)
            out[i] = True
        else:
            s[ln] = True
            if len(s) > assoc:
                s.popitem(last=False)
    return out


geometries = st.tuples(
    st.sampled_from([1, 2, 4, 8]),  # num_sets
    st.sampled_from([1, 2, 3, 4, 8]),  # associativity
)

traces = st.lists(st.integers(min_value=0, max_value=40), max_size=300).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


@settings(max_examples=80, deadline=None)
@given(lines=traces, geom=geometries, stress=st.sampled_from([0, 1, 2, 3]))
def test_classify_hits_matches_lru_oracle(lines, geom, stress):
    """Exact per-access agreement, including tiny windows that push
    accesses through the medium/stabbing/probe tiers."""
    num_sets, assoc = geom
    window = None if stress == 0 else assoc * stress + 1
    got = classify_hits(lines, num_sets, assoc, window=window)
    want = _ref_hits(lines, num_sets, assoc)
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(lines=traces, geom=geometries)
def test_simulate_level_matches_reference_cache(lines, geom):
    num_sets, assoc = geom
    config = _config(num_sets, assoc)
    ref = SetAssociativeCache(config).access_lines(lines)
    vec = simulate_level(config, lines)
    assert vec.stats.accesses == ref.stats.accesses
    assert vec.stats.misses == ref.stats.misses
    assert np.array_equal(vec.miss_lines, ref.miss_lines)


@settings(max_examples=60, deadline=None)
@given(
    lines=st.lists(
        st.integers(min_value=0, max_value=30), min_size=1, max_size=200
    ),
    writes_seed=st.integers(min_value=0, max_value=2**31 - 1),
    geom=geometries,
)
def test_writes_and_writebacks_bit_identical(lines, writes_seed, geom):
    """Dirty bits, write-backs, and the downstream (fills + evicted
    write-backs) stream all agree with the reference."""
    num_sets, assoc = geom
    lines = np.array(lines, dtype=np.int64)
    writes = np.random.default_rng(writes_seed).random(len(lines)) < 0.4
    config = _config(num_sets, assoc)
    ref = SetAssociativeCache(config).access_lines(lines, writes)
    vec = simulate_level(config, lines, writes)
    assert vec.stats.misses == ref.stats.misses
    assert vec.stats.writebacks == ref.stats.writebacks
    assert np.array_equal(vec.miss_lines, ref.miss_lines)
    assert np.array_equal(vec.writeback_lines, ref.writeback_lines)
    assert np.array_equal(vec.downstream_lines, ref.downstream_lines)
    assert np.array_equal(vec.downstream_writes, ref.downstream_writes)


TWO_LEVEL = (
    CacheConfig("L1", size_bytes=2048, line_bytes=64, associativity=2),
    CacheConfig("L2", size_bytes=16384, line_bytes=128, associativity=4),
)


@settings(max_examples=40, deadline=None)
@given(
    lines=st.lists(
        st.integers(min_value=0, max_value=600), min_size=1, max_size=400
    ),
    with_writes=st.booleans(),
)
def test_two_level_hierarchy_backends_identical(lines, with_writes):
    """The full hierarchy — L1 misses chained into a wider-lined L2 —
    is bit-identical with the oracle as its level engine, with and
    without write flags."""
    lines = np.array(lines, dtype=np.int64)
    writes = None
    if with_writes:
        writes = np.random.default_rng(len(lines)).random(len(lines)) < 0.3
    vec = MemoryHierarchy(TWO_LEVEL).simulate_lines(lines, writes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hierarchy, "simulate_level", oracle.simulate_level)
        ref = MemoryHierarchy(TWO_LEVEL).simulate_lines(lines, writes)
    for level_ref, level_vec in zip(ref.level_stats, vec.level_stats):
        assert level_ref.accesses == level_vec.accesses
        assert level_ref.misses == level_vec.misses
        assert level_ref.writebacks == level_vec.writebacks
    assert ref.memory_accesses == vec.memory_accesses
    assert ref.memory_writebacks == vec.memory_writebacks


def test_small_set_fast_path_exercised():
    """Sets holding <= associativity distinct lines take the
    first-occurrence fast path (reversed-scatter): every non-first
    access hits, mixed freely with an overflowing set."""
    # Set 0 holds lines {0, 4} (small, assoc 2); set 1 holds
    # {1, 3, 5, 7} (overflows a 2-way set).
    lines = np.array([0, 4, 0, 4, 1, 3, 5, 7, 1, 0, 4], dtype=np.int64)
    got = classify_hits(lines, 2, 2)
    want = _ref_hits(lines, 2, 2)
    assert np.array_equal(got, want)
    # The two tail accesses of the small set are re-references: hits.
    assert got[-1] and got[-2]


def test_consecutive_duplicates_collapse():
    lines = np.repeat(np.arange(5, dtype=np.int64), 7)
    got = classify_hits(lines, 2, 1)
    want = _ref_hits(lines, 2, 1)
    assert np.array_equal(got, want)
    assert got.sum() == 5 * 6  # every repeat after the first hits


def test_empty_and_singleton_traces():
    for lines in (np.empty(0, dtype=np.int64), np.array([9], dtype=np.int64)):
        got = classify_hits(lines, 4, 2)
        assert np.array_equal(got, _ref_hits(lines, 4, 2))


def test_randomized_sweep_large_windows():
    """A heavier seeded sweep over mixed geometries (beyond Hypothesis's
    size budget) including windows straddling the probe-tier boundary."""
    rng = np.random.default_rng(2024)
    for _ in range(25):
        n = int(rng.integers(1, 4000))
        spread = int(rng.integers(8, 3000))
        lines = rng.integers(0, spread, size=n)
        num_sets = int(2 ** rng.integers(0, 7))
        assoc = int(rng.integers(1, 9))
        window = [None, assoc, 2 * assoc, 4 * assoc + 1][rng.integers(0, 4)]
        got = classify_hits(lines, num_sets, assoc, window=window)
        want = _ref_hits(lines, num_sets, assoc)
        assert np.array_equal(got, want), (n, num_sets, assoc, window)


def test_malloc_tune_gate(monkeypatch):
    """The allocator tuning is best-effort: it never raises, and the
    decision is recorded so it runs once per process."""
    import repro.cachesim.simd as simd

    monkeypatch.setattr(simd, "_MALLOC_TUNED", False)
    simd._tune_allocator()
    assert simd._MALLOC_TUNED is True
    simd._tune_allocator()
    assert simd._MALLOC_TUNED is True
