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
sweep order (asserted in the test suite and by :func:`verify_sweep_tiling`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.transforms.sorting import group_by
from repro.transforms.tile_schedule import TileSchedule


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


@dataclass
class SweepTiling:
    """``tiles[s][v]`` = tile of node ``v`` in sweep ``s``."""

    tiles: List[np.ndarray]
    num_tiles: int

    @property
    def num_sweeps(self) -> int:
        return len(self.tiles)

    def schedule(self) -> TileSchedule:
        """``schedule[t][s]``: nodes of sweep ``s`` in tile ``t``,
        ascending — the executor order."""
        return TileSchedule.from_tiling(self.tiles, self.num_tiles)


def full_sparse_tiling_sweeps(
    graph: CSRGraph,
    num_sweeps: int,
    seed_partition: np.ndarray,
    seed_sweep: Optional[int] = None,
    counter: Optional[dict] = None,
) -> SweepTiling:
    """Grow tiles from one sweep's seed partitioning through all sweeps."""
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

    return SweepTiling([t for t in tiles], num_tiles)


def verify_sweep_tiling(tiling: SweepTiling, graph: CSRGraph) -> bool:
    """Check every Gauss--Seidel dependence against the tiling.

    Within a sweep, ``u -> v`` for adjacent ``u < v`` requires
    ``tile[s][u] <= tile[s][v]`` (ties resolved by ascending node order
    inside the tile).  Between sweeps, ``v@s -> w@s+1`` for ``w`` adjacent
    or equal requires ``tile[s][v] <= tile[s+1][w]``.
    """
    n = graph.num_nodes
    for s, tiles_s in enumerate(tiling.tiles):
        for v in range(n):
            row = graph.row(v)
            for w in row:
                if v < w and tiles_s[v] > tiles_s[w]:
                    return False
            if s + 1 < tiling.num_sweeps:
                nxt = tiling.tiles[s + 1]
                if tiles_s[v] > nxt[v]:
                    return False
                for w in row:
                    if tiles_s[v] > nxt[w]:
                        return False
    return True
