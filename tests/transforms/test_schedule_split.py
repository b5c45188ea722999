"""Vectorized schedule construction: counting-sorted groups and tiles.

``WavefrontSchedule.groups`` and ``TilingFunction.schedule`` (a kernel's
loops or Gauss--Seidel's sweeps) build their per-wave / per-tile index
lists as one CSR (one stable counting sort, no scan per group) and hand it out as
a read-only sequence of views; these tests pin the marshalled results to
the obvious per-group definition, including the empty-group edge cases,
the range/index rule, and the partition check hand-built lists pay.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutorBoundsError, ValidationError
from repro.transforms.fst import TilingFunction
from repro.transforms.tile_schedule import CSRLists, TileSchedule
from repro.transforms.parallel import (
    CyclicDependenceError,
    WavefrontSchedule,
    wavefront_schedule,
)


def _reference_waves(num_iterations, src, dst):
    """One-node-at-a-time Kahn worklist (the pre-vectorization loop)."""
    indegree = np.zeros(num_iterations, dtype=np.int64)
    np.add.at(indegree, dst, 1)
    succ = [[] for _ in range(num_iterations)]
    for a, b in zip(src, dst):
        succ[int(a)].append(int(b))
    wave = np.zeros(num_iterations, dtype=np.int64)
    ready = [int(v) for v in np.flatnonzero(indegree == 0)]
    processed = 0
    while ready:
        v = ready.pop()
        processed += 1
        for w in succ[v]:
            wave[w] = max(wave[w], wave[v] + 1)
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    assert processed == num_iterations
    return wave


def test_groups_match_per_wave_scan():
    rng = np.random.default_rng(5)
    wave = rng.integers(0, 9, size=200)
    sched = WavefrontSchedule(wave, 12)  # waves 9..11 are empty
    groups = sched.groups()
    assert len(groups) == 12
    for w, group in enumerate(groups):
        assert np.array_equal(group, np.flatnonzero(wave == w))
    assert sched.max_parallelism == max(len(g) for g in groups)
    assert groups[11].size == 0


def test_groups_empty_schedule():
    sched = WavefrontSchedule(np.empty(0, dtype=np.int64), 0)
    assert sched.groups() == []
    assert sched.max_parallelism == 0


@pytest.mark.parametrize("seed", range(6))
def test_frontier_loop_matches_worklist_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))
    m = int(rng.integers(0, 4 * n))
    # Random DAG: edges only go low -> high iteration id.
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    got = wavefront_schedule(n, lo, hi)
    want = _reference_waves(n, lo, hi)
    assert np.array_equal(got.wave, want)
    assert got.num_waves == (int(want.max()) + 1 if n else 0)


def test_frontier_loop_counter_preserved():
    src = np.array([0, 1], dtype=np.int64)
    dst = np.array([1, 2], dtype=np.int64)
    counter = {}
    wavefront_schedule(3, src, dst, counter=counter)
    assert counter["touches"] == 2 * 2 + 2 * 3


def test_cycle_still_detected():
    src = np.array([0, 1, 2], dtype=np.int64)
    dst = np.array([1, 2, 0], dtype=np.int64)
    with pytest.raises(CyclicDependenceError, match="dependence cycles"):
        wavefront_schedule(3, src, dst)


def test_tiling_schedule_with_empty_tiles():
    """Regression: tiles with no iterations in some (or every) loop must
    come back as empty arrays, not be dropped or shifted."""
    tiles = [
        np.array([0, 3, 0, 3, 3], dtype=np.int64),  # tiles 1, 2 empty
        np.array([3, 3, 3], dtype=np.int64),  # only tile 3 populated
    ]
    fn = TilingFunction(tiles, num_tiles=5)  # tile 4 empty everywhere
    sched = fn.schedule()
    assert len(sched) == 5
    assert np.array_equal(sched[0][0], [0, 2])
    assert np.array_equal(sched[3][0], [1, 3, 4])
    for t in (1, 2, 4):
        assert sched[t][0].size == 0
    assert sched[0][1].size == 0 and np.array_equal(sched[3][1], [0, 1, 2])
    # Every loop iteration appears exactly once across tiles.
    for l, loop_tiles in enumerate(tiles):
        flat = np.concatenate([sched[t][l] for t in range(5)])
        assert np.array_equal(np.sort(flat), np.arange(len(loop_tiles)))


def test_tiling_schedule_zero_tiles():
    fn = TilingFunction([np.empty(0, dtype=np.int64)], num_tiles=0)
    assert fn.schedule() == []


# ---------------------------------------------------------------------------
# The marshalled schedule: one representation, range form decided by data


def test_range_form_is_decided_by_the_labels():
    """A loop already ordered by tile is a list of ranges (``flat`` is
    ``arange``, empty tiles included); any other loop keeps its index
    list.  Nothing but the label array selects the form."""
    packed = np.array([0, 0, 2, 2, 2, 3], dtype=np.int64)  # tile 1 empty
    mixed = np.array([1, 0, 1, 0], dtype=np.int64)
    sched = TilingFunction([packed, mixed], num_tiles=4).schedule()
    assert sched.is_range == (True, False)
    assert np.array_equal(sched.loops[0].flat, np.arange(6))
    assert sched.loops[0].offsets.tolist() == [0, 2, 2, 5, 6]
    assert np.array_equal(sched.loops[1].flat, [1, 3, 0, 2])
    assert [t[0].tolist() for t in sched] == [[0, 1], [], [2, 3, 4], [5]]
    # Hand-built index lists stay index lists, whatever they hold.
    assert TileSchedule.from_tiles(list(sched)).is_range == (False, False)


def test_marshalled_schedule_is_read_only():
    sched = TilingFunction(
        [np.array([1, 0, 1], dtype=np.int64)], num_tiles=2
    ).schedule()
    for arr in (sched.loops[0].flat, sched.loops[0].offsets, sched[0][0]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7


def test_tiling_with_out_of_range_tile_ids_rejected():
    """The counting sort used to drop iterations labelled past
    ``num_tiles`` silently."""
    for labels in ([0, 1, 5], [0, -1, 1]):
        fn = TilingFunction([np.array(labels, dtype=np.int64)], num_tiles=2)
        with pytest.raises(ValidationError, match=r"tiles\[0\]"):
            fn.schedule()


@st.composite
def _tilings(draw):
    num_tiles = draw(st.integers(0, 6))
    num_loops = draw(st.integers(1, 3))
    tiles = []
    for _ in range(num_loops):
        size = draw(st.integers(0, 12)) if num_tiles else 0
        labels = draw(
            st.lists(
                st.integers(0, max(num_tiles - 1, 0)),
                min_size=size,
                max_size=size,
            )
        )
        if draw(st.booleans()):
            labels = sorted(labels)
        tiles.append(np.array(labels, dtype=np.int64))
    return tiles, num_tiles


@settings(max_examples=200, deadline=None)
@given(_tilings())
def test_schedule_round_trips_through_its_list_form(tiling):
    """``from_tiles(list(s)) == s`` (empty tiles, empty loops and zero
    tiles included), and every tile is the per-(tile, loop) scan."""
    tiles, num_tiles = tiling
    sched = TileSchedule.from_tiling(tiles, num_tiles)
    assert len(sched) == num_tiles
    for t, tile in enumerate(sched):
        for pos, labels in enumerate(tiles):
            assert np.array_equal(tile[pos], np.flatnonzero(labels == t))
    for pos, labels in enumerate(tiles):
        want = bool(np.all(np.diff(labels) >= 0))
        assert sched.is_range[pos] == want
        assert want == np.array_equal(
            sched.loops[pos].flat, np.arange(len(labels))
        )
    rebuilt = TileSchedule.from_tiles(
        [list(tile) for tile in sched], extents=[len(t) for t in tiles]
    )
    assert rebuilt == sched and sched == rebuilt
    if num_tiles:  # the list form of zero tiles has lost the loop count
        assert TileSchedule.from_tiles(list(sched)) == sched
    assert sched == [list(tile) for tile in sched]


def test_hand_built_lists_must_partition():
    lists = [np.array([2, 0]), np.array([], dtype=np.int64), np.array([1])]
    ok = CSRLists.from_lists(lists)
    assert ok.offsets.tolist() == [0, 2, 2, 3] and ok == lists
    with pytest.raises(ExecutorBoundsError) as info:
        CSRLists.from_lists([np.array([0, 9])], extent=4, name="wave_groups")
    assert info.value.array == "wave_groups" and info.value.bound == 4
    with pytest.raises(ValidationError, match="cover 2 entries, expected 4"):
        CSRLists.from_lists([np.array([0, 1])], extent=4)
    with pytest.raises(ValidationError, match="1 of 3 entries more than once"):
        CSRLists.from_lists([np.array([0, 1]), np.array([1])])
    with pytest.raises(ValidationError, match="must hold integers"):
        CSRLists.from_lists([np.array([0.0, 1.0])])
    with pytest.raises(ValidationError, match="must cover 2 loops"):
        TileSchedule.from_tiles([[np.arange(2)]], extents=[2, 2])


def test_sweep_schedule_matches_per_tile_scan():
    rng = np.random.default_rng(3)
    tiles = [rng.integers(0, 5, size=40) for _ in range(3)]
    tiles[1] = np.sort(tiles[1])
    sched = TilingFunction(tiles, num_tiles=6).schedule()  # tile 5 empty
    assert len(sched) == 6 and sched.is_range == (False, True, False)
    for t, tile in enumerate(sched):
        for s, labels in enumerate(tiles):
            assert np.array_equal(tile[s], np.flatnonzero(labels == t))


def test_wave_groups_are_views_of_one_csr():
    rng = np.random.default_rng(8)
    wave = rng.integers(0, 7, size=60)
    sched = WavefrontSchedule(wave, 7)
    groups = sched.groups()
    assert groups is sched.groups()  # built once
    assert np.array_equal(groups.flat, np.argsort(wave, kind="stable"))
    assert np.array_equal(np.concatenate(groups), groups.flat)
    assert all(g.base is groups.flat for g in groups if len(g))
    assert [len(g) for g in groups[:3]] == np.bincount(wave)[:3].tolist()
    skew = sched.wave_skew(np.ones(60, dtype=np.int64))
    assert skew["critical_path"] == 7 and skew["total_work"] == 60
    assert [w["tiles"] for w in skew["waves"]] == groups.sizes().tolist()
