"""Full sparse tiling *across an outer loop*: the Gauss--Seidel case.

Sparse tiling was born on Gauss--Seidel (Strout et al., ICCS'01): the
computation is ``num_sweeps`` sequential relaxation sweeps over the nodes
of a sparse matrix graph, and each update ``x[v] = f(x[neighbors(v)])``
creates dependences *within* a sweep (from already-updated smaller-numbered
neighbors) and *between* consecutive sweeps (from larger-numbered
neighbors and from ``v`` itself).  A sparse tile is a slice through
several sweeps that can execute atomically; running tiles in order walks
the data through all sweeps while it is cache-resident.

This module implements that tiling: seed-partition one sweep, grow
backward and forward through the others.  Growth rules (mirroring
:mod:`repro.transforms.fst`, with the within-sweep dependences folded in):

* backward (sweep ``s`` before the seed), nodes in descending order::

      tile[s][v] = min( tile[s+1][w]  for w in {v} ∪ adj(v),
                        tile[s][v']   for v' in adj(v), v' > v )

* forward (after the seed), nodes in ascending order::

      tile[s][v] = max( tile[s-1][w]  for w in {v} ∪ adj(v),
                        tile[s][v']   for v' in adj(v), v' < v )

Executing tiles in increasing id — and, inside a tile, sweeps in order
and nodes in ascending order — then respects **every** dependence, so
tiled Gauss--Seidel computes *bit-identical* results to the sequential
sweep order (asserted in the test suite).  A sweep is a loop: the tiling
is a :class:`~repro.transforms.fst.TilingFunction`, and
:func:`sweep_edges` states the dependences in the edge format every
sparse tiling shares, so :func:`~repro.transforms.fst.check_tiling`
checks it like any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.transforms.fst import Edges, TilingFunction, loop_iterations
from repro.transforms.sorting import group_by


@dataclass(frozen=True)
class CSRGraph:
    """Symmetric adjacency in CSR form over ``num_nodes`` nodes."""

    offsets: np.ndarray
    neighbors: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        return len(self.neighbors) // 2

    def row(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    @staticmethod
    def from_edges(num_nodes: int, left: np.ndarray, right: np.ndarray) -> "CSRGraph":
        """Build a symmetric graph from an edge list (self-loops dropped,
        duplicates kept — harmless for tiling and relaxation weights)."""
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        keep = left != right
        left, right = left[keep], right[keep]
        src = np.concatenate([left, right])
        dst = np.concatenate([right, left])
        order, offsets = group_by(src, num_nodes, "edge endpoints")
        return CSRGraph(offsets, dst[order])


def sweep_edges(graph: CSRGraph, num_sweeps: int) -> Edges:
    """Gauss--Seidel's dependences as sweep-pair edge sets: within sweep
    ``s``, ``u -> v`` for adjacent ``u < v`` (ascending node order inside
    a tile breaks the tie); between sweeps, ``v@s -> w@s+1`` for ``w`` in
    ``{v} ∪ adj(v)``, one edge set for ``v`` and one for its neighbours.
    """
    nodes = loop_iterations(graph.num_nodes)
    rows = np.repeat(nodes, np.diff(graph.offsets))
    forward = rows < graph.neighbors
    within = ((rows[forward], graph.neighbors[forward]),)
    across = ((nodes, nodes), (rows, graph.neighbors))
    edges = {}
    for s in range(num_sweeps):
        edges[(s, s)] = within
        if s + 1 < num_sweeps:
            edges[(s, s + 1)] = across
    return edges


def full_sparse_tiling_sweeps(
    graph: CSRGraph,
    num_sweeps: int,
    seed_partition: np.ndarray,
    seed_sweep: Optional[int] = None,
    counter: Optional[dict] = None,
) -> TilingFunction:
    """Grow tiles from one sweep's seed partitioning through all sweeps:
    ``tiles[s][v]`` is the tile of node ``v`` in sweep ``s``."""
    n = graph.num_nodes
    seed_partition = np.asarray(seed_partition, dtype=np.int64)
    if len(seed_partition) != n:
        raise ValueError("seed partition must cover every node")
    if num_sweeps < 1:
        raise ValueError("need at least one sweep")
    if seed_sweep is None:
        seed_sweep = num_sweeps // 2
    if not (0 <= seed_sweep < num_sweeps):
        raise ValueError("seed sweep out of range")
    num_tiles = int(seed_partition.max()) + 1 if n else 0

    offsets, neighbors = graph.offsets, graph.neighbors
    tiles: List[Optional[np.ndarray]] = [None] * num_sweeps
    tiles[seed_sweep] = seed_partition.copy()
    touches = 0

    for s in range(seed_sweep - 1, -1, -1):
        cur = np.empty(n, dtype=np.int64)
        nxt = tiles[s + 1]
        for v in range(n - 1, -1, -1):
            t = nxt[v]
            for w in neighbors[offsets[v] : offsets[v + 1]]:
                tw = nxt[w]
                if tw < t:
                    t = tw
                if w > v:
                    tw = cur[w]
                    if tw < t:
                        t = tw
            cur[v] = t
        touches += n + len(neighbors)
        tiles[s] = cur

    for s in range(seed_sweep + 1, num_sweeps):
        cur = np.empty(n, dtype=np.int64)
        prev = tiles[s - 1]
        for v in range(n):
            t = prev[v]
            for w in neighbors[offsets[v] : offsets[v + 1]]:
                tw = prev[w]
                if tw > t:
                    t = tw
                if w < v:
                    tw = cur[w]
                    if tw > t:
                        t = tw
            cur[v] = t
        touches += n + len(neighbors)
        tiles[s] = cur

    if counter is not None:
        counter["touches"] = counter.get("touches", 0) + touches

    return TilingFunction([t for t in tiles], num_tiles)
