"""Tests for the run-time parallelization inspectors."""

import numpy as np
import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.transforms import block_partition, full_sparse_tiling
from repro.transforms.parallel import (
    CyclicDependenceError,
    WavefrontSchedule,
    tile_wavefronts,
    wavefront_schedule,
)


class TestWavefrontSchedule:
    def test_chain_is_fully_serial(self):
        src = np.arange(4)
        dst = np.arange(1, 5)
        sched = wavefront_schedule(5, src, dst)
        assert list(sched.wave) == [0, 1, 2, 3, 4]
        assert sched.num_waves == 5
        assert sched.max_parallelism == 1

    def test_independent_iterations_one_wave(self):
        sched = wavefront_schedule(6, np.empty(0, int), np.empty(0, int))
        assert sched.num_waves == 1
        assert sched.max_parallelism == 6
        assert sched.average_parallelism == 6.0

    def test_diamond(self):
        # 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        sched = wavefront_schedule(
            4, np.array([0, 0, 1, 2]), np.array([1, 2, 3, 3])
        )
        assert list(sched.wave) == [0, 1, 1, 2]
        groups = sched.groups()
        assert set(groups[1].tolist()) == {1, 2}

    def test_longest_path_wins(self):
        # 0 -> 2 and 0 -> 1 -> 2: iteration 2 is at level 2, not 1.
        sched = wavefront_schedule(3, np.array([0, 0, 1]), np.array([2, 1, 2]))
        assert sched.wave[2] == 2

    def test_cycle_detected(self):
        with pytest.raises(CyclicDependenceError):
            wavefront_schedule(2, np.array([0, 1]), np.array([1, 0]))

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(CyclicDependenceError):
            wavefront_schedule(1, np.array([0]), np.array([0]))

    def test_mismatched_arrays(self):
        with pytest.raises(ValueError):
            wavefront_schedule(2, np.array([0]), np.array([0, 1]))

    def test_counter(self):
        counter = {}
        wavefront_schedule(3, np.array([0]), np.array([1]), counter=counter)
        assert counter["touches"] > 0

    def test_empty_schedule(self):
        sched = wavefront_schedule(0, np.empty(0, int), np.empty(0, int))
        assert sched.num_waves == 0
        assert sched.average_parallelism == 0.0

    @given(st.integers(2, 30), st.integers(0, 60), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_every_dependence_respected(self, n, m, seed):
        """Property: wave(src) < wave(dst) on random DAGs."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, n, m)
        b = rng.integers(0, n, m)
        # orient edges forward to guarantee acyclicity
        src = np.minimum(a, b)
        dst = np.maximum(a, b)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        sched = wavefront_schedule(n, src, dst)
        assert (sched.wave[src] < sched.wave[dst]).all()
        # and every iteration appears exactly once across the groups
        total = np.concatenate(sched.groups()) if sched.num_waves else []
        assert sorted(np.asarray(total).tolist()) == list(range(n))


class TestTileWavefronts:
    def _tiled_moldyn(self, n=32, block=4):
        left = np.arange(n)
        right = (np.arange(n) + 1) % n
        j = np.arange(n)
        edges = {(0, 1): ((left, j), (right, j)), (1, 2): ((j, left), (j, right))}
        tiling = full_sparse_tiling(
            [n, n, n], 1, block_partition(n, block), edges
        )
        return tiling, edges

    def test_tile_graph_respected(self):
        tiling, edges = self._tiled_moldyn()
        sched = tile_wavefronts(tiling, edges)
        for (la, lb), edge_sets in edges.items():
            for src, dst in edge_sets:
                ts = tiling.tiles[la][src]
                td = tiling.tiles[lb][dst]
                strict = ts != td
                assert (sched.wave[ts[strict]] < sched.wave[td[strict]]).all()

    def test_independent_tiles_share_a_wave(self):
        # Two disconnected components -> their tiles can run concurrently.
        left = np.array([0, 1, 4, 5])
        right = np.array([1, 0, 5, 4])
        j = np.arange(4)
        edges = {(0, 1): ((left, j), (right, j))}
        tiling = full_sparse_tiling(
            [8, 4], 1, np.array([0, 0, 1, 1]), edges
        )
        sched = tile_wavefronts(tiling, edges)
        assert sched.max_parallelism >= 2

    def test_counter(self):
        tiling, edges = self._tiled_moldyn()
        counter = {}
        tile_wavefronts(tiling, edges, counter=counter)
        assert counter["touches"] > 0

    def test_groups_cover_all_tiles(self):
        tiling, edges = self._tiled_moldyn(n=40, block=5)
        sched = tile_wavefronts(tiling, edges)
        all_tiles = np.concatenate(sched.groups())
        assert sorted(all_tiles.tolist()) == list(range(tiling.num_tiles))
