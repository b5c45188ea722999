"""Test oracles for sparse-tiling legality.

:func:`repro.transforms.fst.check_tiling` is the one legality check of
every sparse tiling.  The two checkers it replaced are kept here, as
they were written, so the tests can hold its verdict to them:

* :func:`verify_tiling` walks each loop pair's edge sets concatenated
  into one edge list (the shape ``dependence_edges`` used to build) and
  tests ``np.all(tiles[la][src] <= tiles[lb][dst])``;
* :func:`verify_sweep_tiling` is the scalar loop over Gauss--Seidel's
  sweeps and CSR rows.
"""

import numpy as np


def concatenated(edge_sets):
    """One loop pair's per-access edge sets as one ``(src, dst)`` list."""
    return (
        np.concatenate([np.asarray(src, dtype=np.int64) for src, _ in edge_sets]),
        np.concatenate([np.asarray(dst, dtype=np.int64) for _, dst in edge_sets]),
    )


def verify_tiling(tiling, edges) -> bool:
    """``tile(src) <= tile(dst)`` for every cross-loop dependence (a
    backward pair needs ``<``), over the concatenated edge lists."""
    for (la, lb), edge_sets in edges.items():
        src, dst = concatenated(edge_sets)
        if la < lb:
            if not np.all(tiling.tiles[la][src] <= tiling.tiles[lb][dst]):
                return False
        else:
            if not np.all(tiling.tiles[la][src] < tiling.tiles[lb][dst]):
                return False
    return True


def verify_sweep_tiling(tiling, graph) -> bool:
    """Every Gauss--Seidel dependence against a sweep tiling.

    Within a sweep, ``u -> v`` for adjacent ``u < v`` requires
    ``tile[s][u] <= tile[s][v]``.  Between sweeps, ``v@s -> w@s+1`` for
    ``w`` adjacent or equal requires ``tile[s][v] <= tile[s+1][w]``.
    """
    n = graph.num_nodes
    num_sweeps = len(tiling.tiles)
    for s, tiles_s in enumerate(tiling.tiles):
        for v in range(n):
            row = graph.row(v)
            for w in row:
                if v < w and tiles_s[v] > tiles_s[w]:
                    return False
            if s + 1 < num_sweeps:
                nxt = tiling.tiles[s + 1]
                if tiles_s[v] > nxt[v]:
                    return False
                for w in row:
                    if tiles_s[v] > nxt[w]:
                        return False
    return True
