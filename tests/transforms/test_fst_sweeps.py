"""Tests for sparse tiling across an outer loop (Gauss--Seidel FST)."""

import numpy as np
import pytest

from repro.errors import InspectorFault
from repro.transforms import block_partition
from repro.transforms.fst import TilingFunction, check_tiling
from repro.transforms.fst_sweeps import (
    CSRGraph,
    full_sparse_tiling_sweeps,
    sweep_edges,
)


def check_sweeps(tiling, graph):
    """Gauss--Seidel's sweeps through the one legality check."""
    sweeps = len(tiling.tiles)
    check_tiling(
        tiling, [graph.num_nodes] * sweeps, sweep_edges(graph, sweeps), "sweeps"
    )


def ring_graph(n):
    left = np.arange(n)
    right = (np.arange(n) + 1) % n
    return CSRGraph.from_edges(n, left, right)


def random_graph(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return CSRGraph.from_edges(
        n, rng.integers(0, n, m), rng.integers(0, n, m)
    )


class TestCSRGraph:
    def test_from_edges_symmetric(self):
        g = CSRGraph.from_edges(4, np.array([0, 1]), np.array([1, 2]))
        assert set(g.row(1)) == {0, 2}
        assert set(g.row(0)) == {1}
        assert g.num_edges == 2

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges(3, np.array([0, 1]), np.array([0, 2]))
        assert list(g.row(0)) == []
        assert set(g.row(1)) == {2}

    def test_num_nodes(self):
        assert ring_graph(7).num_nodes == 7


class TestSweepTilingGrowth:
    def test_seed_sweep_keeps_partition(self):
        g = ring_graph(12)
        seed = block_partition(12, 4)
        tiling = full_sparse_tiling_sweeps(g, 3, seed, seed_sweep=1)
        assert np.array_equal(tiling.tiles[1], seed)

    def test_default_seed_is_middle(self):
        g = ring_graph(8)
        tiling = full_sparse_tiling_sweeps(g, 5, block_partition(8, 4))
        assert np.array_equal(tiling.tiles[2], block_partition(8, 4))

    def test_backward_growth_shrinks_or_keeps(self):
        g = ring_graph(16)
        tiling = full_sparse_tiling_sweeps(g, 2, block_partition(16, 4), seed_sweep=1)
        assert (tiling.tiles[0] <= tiling.tiles[1]).all()

    def test_forward_growth_grows_or_keeps(self):
        g = ring_graph(16)
        tiling = full_sparse_tiling_sweeps(g, 2, block_partition(16, 4), seed_sweep=0)
        assert (tiling.tiles[1] >= tiling.tiles[0]).all()

    def test_single_sweep(self):
        g = ring_graph(8)
        tiling = full_sparse_tiling_sweeps(g, 1, block_partition(8, 4))
        assert len(tiling.tiles) == 1
        check_sweeps(tiling, g)

    def test_invalid_args(self):
        g = ring_graph(4)
        with pytest.raises(ValueError):
            full_sparse_tiling_sweeps(g, 0, block_partition(4, 2))
        with pytest.raises(ValueError):
            full_sparse_tiling_sweeps(g, 2, block_partition(3, 2))
        with pytest.raises(ValueError):
            full_sparse_tiling_sweeps(g, 2, block_partition(4, 2), seed_sweep=5)

    @pytest.mark.parametrize("num_sweeps", [2, 3, 5])
    @pytest.mark.parametrize("block", [3, 8, 50])
    def test_always_legal_on_random_graphs(self, num_sweeps, block):
        for seed in range(3):
            g = random_graph(40, 120, seed=seed)
            tiling = full_sparse_tiling_sweeps(
                g, num_sweeps, block_partition(40, block)
            )
            check_sweeps(tiling, g)

    def test_schedule_partitions_each_sweep(self):
        g = random_graph(30, 90)
        tiling = full_sparse_tiling_sweeps(g, 3, block_partition(30, 10))
        sched = tiling.schedule()
        for s in range(3):
            nodes = np.concatenate([sched[t][s] for t in range(tiling.num_tiles)])
            assert sorted(nodes.tolist()) == list(range(30))

    def test_counter_accounts_growth(self):
        g = ring_graph(20)
        counter = {}
        full_sparse_tiling_sweeps(g, 4, block_partition(20, 5), counter=counter)
        assert counter["touches"] > 0


class TestVerifier:
    def test_detects_within_sweep_violation(self):
        g = ring_graph(6)
        bad = TilingFunction([np.array([1, 0, 0, 0, 0, 0])], 2)
        # node 0 -> node 1 dependence (adjacent, 0 < 1): tile 1 > tile 0.
        with pytest.raises(InspectorFault, match=r"\(loop 0 -> loop 0\)"):
            check_sweeps(bad, g)

    def test_detects_cross_sweep_violation(self):
        g = ring_graph(4)
        good = np.zeros(4, dtype=np.int64)
        bad = TilingFunction([good + 1, good], 2)  # sweep 0 after sweep 1
        with pytest.raises(InspectorFault, match=r"\(loop 0 -> loop 1\)"):
            check_sweeps(bad, g)

    def test_accepts_single_tile(self):
        g = random_graph(20, 60)
        one = TilingFunction([np.zeros(20, dtype=np.int64)] * 3, 1)
        check_sweeps(one, g)

    def test_sweep_edges_point_forward(self):
        """Within a sweep ``u < v``; across, ``v`` and its neighbours."""
        g = ring_graph(5)
        edges = sweep_edges(g, 2)
        assert list(edges) == [(0, 0), (0, 1), (1, 1)]
        (src, dst), = edges[(0, 0)]
        assert (src < dst).all() and len(src) == g.num_edges
        (same_src, same_dst), (src, dst) = edges[(0, 1)]
        assert np.array_equal(same_src, same_dst)
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(
            (v, int(w)) for v in range(5) for w in g.row(v)
        )
