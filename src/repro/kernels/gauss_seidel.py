"""Gauss--Seidel: the kernel sparse tiling was invented for.

The paper generalizes sparse tiling *away* from Gauss--Seidel; this
module keeps the original around, both as the historical baseline and as
the one benchmark with **non-reduction loop-carried dependences** —
which exercises the legality machinery differently from moldyn/nbf/irreg
(no iteration reordering of the sweep is legal except one that inspects
the dependences, exactly sparse tiling's niche).

The relaxation computed here is a Jacobi-weighted Gauss--Seidel::

    for s in range(num_sweeps):
        for v in 0..n-1:                       # ascending node order
            x[v] = (b[v] + sum(x[w] for w in adj(v))) / (1 + deg(v))

Each update reads whatever its neighbors hold *at that moment* — smaller
neighbors already updated this sweep, larger ones not — so the result
depends on execution order.  A legal sparse tiling preserves every
dependence, hence tiled execution is **bit-identical** to the sequential
sweep order; the tests assert exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cachesim.trace import AccessTrace, TraceBuilder
from repro.kernels.datasets import Dataset
from repro.lowering.schedule import tile_walk, walk_indices
from repro.transforms.fst import TilingFunction
from repro.transforms.fst_sweeps import CSRGraph


@dataclass
class GaussSeidelData:
    """A bound Gauss--Seidel instance."""

    graph: CSRGraph
    x: np.ndarray
    b: np.ndarray
    #: Bytes per unknown record (x plus matrix-row metadata after
    #: inter-array regrouping); one double for the rhs.
    node_record_bytes: int = 16
    rhs_record_bytes: int = 8

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def copy(self) -> "GaussSeidelData":
        return GaussSeidelData(
            self.graph, self.x.copy(), self.b.copy(),
            self.node_record_bytes, self.rhs_record_bytes,
        )


def make_gauss_seidel_data(dataset: Dataset, seed: int = 42) -> GaussSeidelData:
    """Instantiate Gauss--Seidel on a dataset's interaction graph."""
    graph = CSRGraph.from_edges(dataset.num_nodes, dataset.left, dataset.right)
    rng = np.random.default_rng(seed)
    return GaussSeidelData(
        graph=graph,
        x=rng.random(dataset.num_nodes),
        b=rng.random(dataset.num_nodes),
    )


def run_sweeps(
    data: GaussSeidelData,
    num_sweeps: int,
    tiling: Optional[TilingFunction] = None,
) -> GaussSeidelData:
    """Execute sweeps in place, sequentially or tile by tile.

    With a tiling, updates run ``for t: for s: for v in sched(t, s)`` —
    and, because the tiling respects every dependence, produce exactly
    the sequential result.
    """
    graph, x, b = data.graph, data.x, data.b
    offsets, neighbors = graph.offsets, graph.neighbors

    def update(v: int) -> None:
        acc = b[v]
        count = 1
        for w in neighbors[offsets[v] : offsets[v + 1]]:
            acc += x[w]
            count += 1
        x[v] = acc / count

    if tiling is None:
        for _s in range(num_sweeps):
            for v in range(graph.num_nodes):
                update(v)
    else:
        if len(tiling.tiles) != num_sweeps:
            raise ValueError("tiling covers a different number of sweeps")
        for _t, _s, sweep_nodes in tile_walk(tiling.schedule()):
            for v in walk_indices(sweep_nodes):
                update(int(v))
    return data


def emit_gs_trace(
    data: GaussSeidelData,
    num_sweeps: int,
    tiling: Optional[TilingFunction] = None,
) -> AccessTrace:
    """The executor's address trace: per update, the unknown's record,
    its neighbors' records, and its rhs record."""
    graph = data.graph
    builder = TraceBuilder()
    builder.add_region("unknowns", graph.num_nodes, data.node_record_bytes)
    builder.add_region("rhs", graph.num_nodes, data.rhs_record_bytes)

    rid_unknowns = builder.region_id("unknowns")
    rid_rhs = builder.region_id("rhs")

    def emit_order(order: np.ndarray) -> None:
        """Per update: rhs[v], x[v], then the neighbor records —
        interleaved exactly as the scalar executor touches them."""
        if len(order) == 0:
            return
        order = np.asarray(order, dtype=np.int64)
        degrees = np.diff(graph.offsets)[order]
        counts = degrees + 2
        total = int(counts.sum())
        starts_out = np.cumsum(counts) - counts
        rids = np.full(total, rid_unknowns, dtype=np.int64)
        rids[starts_out] = rid_rhs
        elems = np.empty(total, dtype=np.int64)
        elems[starts_out] = order  # b[v]
        elems[starts_out + 1] = order  # x[v]
        neighbor_slots = np.ones(total, dtype=bool)
        neighbor_slots[starts_out] = False
        neighbor_slots[starts_out + 1] = False
        elems[neighbor_slots] = np.concatenate(
            [
                graph.neighbors[graph.offsets[v] : graph.offsets[v + 1]]
                for v in order
            ]
        ) if degrees.sum() else np.empty(0, dtype=np.int64)
        builder.touch_mixed(rids, elems)

    if tiling is None:
        full = np.arange(graph.num_nodes, dtype=np.int64)
        for _s in range(num_sweeps):
            emit_order(full)
    else:
        if len(tiling.tiles) != num_sweeps:
            raise ValueError("tiling covers a different number of sweeps")
        for _t, _s, sweep_nodes in tile_walk(tiling.schedule()):
            emit_order(walk_indices(sweep_nodes))
    return builder.build()
