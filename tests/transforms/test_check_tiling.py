"""The one legality check of every sparse tiling (``fst.check_tiling``).

* A planted violation — the tile ids at the two ends of one dependence
  swapped — is an ``InspectorFault`` for every tiling producer: FST with
  and without the Section-6 symmetry, cache blocking, FST followed by
  tilePack, and Gauss--Seidel's sweeps.
* Hypothesis holds the verdict to the two checkers ``check_tiling``
  replaced (:mod:`tests.transforms.tiling_oracle`): the concatenated
  edge-list form, with its count and first positions, and the scalar
  loop over Gauss--Seidel's sweeps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InspectorFault
from repro.kernels import generate_dataset, make_kernel_data
from repro.runtime.inspector import (
    CacheBlockStep,
    ComposedInspector,
    CPackStep,
    FullSparseTilingStep,
    LexGroupStep,
    TilePackStep,
    dependence_edges,
)
from repro.transforms import block_partition
from repro.transforms.fst import TilingFunction, check_tiling
from repro.transforms.fst_sweeps import (
    CSRGraph,
    full_sparse_tiling_sweeps,
    sweep_edges,
)
from tests.transforms.tiling_oracle import (
    concatenated,
    verify_sweep_tiling,
    verify_tiling,
)

_BOUND = {
    "fst": [
        CPackStep(), LexGroupStep(), FullSparseTilingStep(16, use_symmetry=False)
    ],
    "fst-symmetric": [CPackStep(), LexGroupStep(), FullSparseTilingStep(16)],
    "cacheblock": [CPackStep(), CacheBlockStep(64)],
    "fst+tilepack": [CPackStep(), FullSparseTilingStep(16), TilePackStep()],
}


def _produce(producer):
    """``(tiling, loop_sizes, edges)`` a producer hands the check."""
    dataset = generate_dataset("mol1", scale=256)
    if producer == "gauss-seidel":
        graph = CSRGraph.from_edges(
            dataset.num_nodes, dataset.left, dataset.right
        )
        tiling = full_sparse_tiling_sweeps(
            graph, 3, block_partition(graph.num_nodes, 32)
        )
        return tiling, [graph.num_nodes] * 3, sweep_edges(graph, 3)
    result = ComposedInspector(_BOUND[producer]).run(
        make_kernel_data("moldyn", dataset)
    )
    bound = result.transformed
    return result.tiling, bound.loop_sizes(), dependence_edges(bound)


@pytest.mark.parametrize("producer", sorted(_BOUND) + ["gauss-seidel"])
def test_a_planted_violation_is_caught(producer):
    tiling, sizes, edges = _produce(producer)
    check_tiling(tiling, sizes, edges, producer)
    # One dependence whose ends sit in different tiles: swap their ids.
    for (la, lb), edge_sets in edges.items():
        src, dst = concatenated(edge_sets)
        strict = np.flatnonzero(tiling.tiles[la][src] < tiling.tiles[lb][dst])
        if len(strict):
            edge = strict[len(strict) // 2]
            break
    else:
        pytest.fail(f"{producer}: no dependence crosses a tile boundary")
    planted = TilingFunction([t.copy() for t in tiling.tiles], tiling.num_tiles)
    a, b = planted.tiles[la][src[edge]], planted.tiles[lb][dst[edge]]
    planted.tiles[la][src[edge]], planted.tiles[lb][dst[edge]] = b, a
    assert not verify_tiling(planted, {(la, lb): edge_sets})
    with pytest.raises(InspectorFault, match="tiling violates") as info:
        check_tiling(planted, sizes, edges, producer)
    assert info.value.stage == producer


def test_positions_count_across_a_pairs_edge_sets():
    """The second edge set's positions follow the first's."""
    tiling = TilingFunction([np.array([0, 1, 1]), np.array([0, 0, 1, 1])], 2)
    edges = {
        (0, 1): (
            (np.array([0, 0, 0]), np.array([0, 1, 2])),
            (np.array([1, 2, 1]), np.array([3, 0, 1])),
        )
    }
    with pytest.raises(InspectorFault) as info:
        check_tiling(tiling, [3, 4], edges, "0:fst")
    assert info.value.indices == [4, 5]
    assert "tiling violates 2 (loop 0 -> loop 1) dependences" in str(info.value)


def test_shape_and_range_come_first():
    edges = {(0, 1): ((np.array([0]), np.array([0])),)}
    one_loop = TilingFunction([np.zeros(1, dtype=np.int64)], 1)
    with pytest.raises(InspectorFault, match="covers 1 loops, kernel has 2"):
        check_tiling(one_loop, [1, 1], edges, "s")
    short = TilingFunction([np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)], 1)
    with pytest.raises(InspectorFault, match="loop 1 covers 0 iterations"):
        check_tiling(short, [1, 1], edges, "s")
    wide = TilingFunction([np.array([0]), np.array([3])], 2)
    with pytest.raises(InspectorFault, match=r"outside \[0, 2\)"):
        check_tiling(wide, [1, 1], edges, "s")


# ---------------------------------------------------------------------------
# The verdict against the oracles


@st.composite
def edge_maps(draw):
    """Random loops, forward loop pairs with 1-3 edge sets each, and a
    tiling that is random or pulled to the legal bound and then nudged."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=2, max_size=4))
    num_tiles = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    pairs = [
        (la, lb)
        for la in range(len(sizes))
        for lb in range(la + 1, len(sizes))
        if draw(st.booleans())
    ]
    edges = {}
    for la, lb in pairs:
        edges[(la, lb)] = tuple(
            (rng.integers(0, sizes[la], m), rng.integers(0, sizes[lb], m))
            for m in draw(st.lists(st.integers(0, 15), min_size=1, max_size=3))
        )
    tiles = [rng.integers(0, num_tiles, size) for size in sizes]
    if draw(st.booleans()):
        # Forward growth in program order makes every edge legal.
        for (la, lb), edge_sets in sorted(edges.items(), key=lambda e: e[0][1]):
            for src, dst in edge_sets:
                np.maximum.at(tiles[lb], dst, tiles[la][src])
        if draw(st.booleans()):
            loop = draw(st.integers(0, len(sizes) - 1))
            node = draw(st.integers(0, sizes[loop] - 1))
            tiles[loop][node] = max(tiles[loop][node] - 1, 0)
    return TilingFunction(tiles, num_tiles), sizes, edges


@given(edge_maps())
@settings(max_examples=200, deadline=None)
def test_verdict_count_and_positions_equal_the_concatenated_oracle(instance):
    tiling, sizes, edges = instance
    if verify_tiling(tiling, edges):
        check_tiling(tiling, sizes, edges, "0:fst")
        return
    with pytest.raises(InspectorFault) as info:
        check_tiling(tiling, sizes, edges, "0:fst")
    # The first violated pair in order, as one concatenated edge list.
    for (la, lb), edge_sets in edges.items():
        src, dst = concatenated(edge_sets)
        violated = tiling.tiles[la][src] > tiling.tiles[lb][dst]
        if violated.any():
            break
    assert f"violates {int(violated.sum())} (loop {la} -> loop {lb})" in str(
        info.value
    )
    assert info.value.indices == np.flatnonzero(violated)[:5].tolist()


@st.composite
def sweep_tilings(draw):
    n = draw(st.integers(1, 15))
    m = draw(st.integers(0, 40))
    sweeps = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    graph = CSRGraph.from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
    if draw(st.booleans()):
        tiling = full_sparse_tiling_sweeps(
            graph, sweeps, block_partition(n, draw(st.integers(1, 6)))
        )
        if draw(st.booleans()):
            s = draw(st.integers(0, sweeps - 1))
            v = draw(st.integers(0, n - 1))
            nudged = tiling.tiles[s][v] + draw(st.sampled_from([-1, 1]))
            tiling.tiles[s][v] = min(max(nudged, 0), tiling.num_tiles - 1)
        return graph, tiling
    num_tiles = draw(st.integers(1, 4))
    return graph, TilingFunction(
        [rng.integers(0, num_tiles, n) for _ in range(sweeps)], num_tiles
    )


@given(sweep_tilings())
@settings(max_examples=200, deadline=None)
def test_sweep_verdict_equals_the_scalar_oracle(instance):
    graph, tiling = instance
    sweeps = len(tiling.tiles)
    sizes, edges = [graph.num_nodes] * sweeps, sweep_edges(graph, sweeps)
    if verify_sweep_tiling(tiling, graph):
        check_tiling(tiling, sizes, edges, "sweeps")
        return
    with pytest.raises(InspectorFault, match="tiling violates"):
        check_tiling(tiling, sizes, edges, "sweeps")
