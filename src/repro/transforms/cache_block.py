"""Cache blocking (Douglas, Hu, Kowarschik, Ruede, Weiss, ETNA 2000).

The other sparse tiling technique the paper folds into the framework.
Where full sparse tiling grows tiles side by side from any seed loop,
cache blocking seeds the *first* loop and grows tiles by **shrinking**:
an iteration of a later loop joins tile ``t`` only if *every* dependence
predecessor is already in tile ``t``; everything else falls into one
remainder tile executed last (paper Section 2.3).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.transforms.fst import Edges, TilingFunction, _edge_list, _tiles_at


def cache_block_tiling(
    loop_sizes: Sequence[int],
    seed_partition: np.ndarray,
    edges: Edges,
    counter: Optional[dict] = None,
    node_loops: Sequence[int] = (),
) -> TilingFunction:
    """Seed the first loop and shrink tiles through later loops.

    Parameters mirror :func:`repro.transforms.fst.full_sparse_tiling`
    except the seed is always loop 0.  ``node_loops`` are the kernel's
    node loops: iteration ``n`` of one is also a predecessor of
    iteration ``n`` of the next (:func:`~repro.transforms.fst.node_loop_edges`,
    read directly, charged no touches), so a node no interaction touches
    stays in its earlier node loop's tile instead of tile 0.  Returns a
    :class:`TilingFunction` whose last tile id is the remainder tile.
    """
    num_loops = len(loop_sizes)
    seed_partition = np.asarray(seed_partition, dtype=np.int64)
    if len(seed_partition) != loop_sizes[0]:
        raise ValueError("seed partition size must match the first loop")
    num_regular = int(seed_partition.max()) + 1 if len(seed_partition) else 0
    remainder = num_regular  # executed after every regular tile

    edge_list = _edge_list(edges)

    touches = 0
    tiles = [seed_partition.copy()]
    for l in range(1, num_loops):
        # An iteration joins tile t only when every predecessor is in t:
        # track the min and max predecessor tile; a mismatch (or a
        # remainder predecessor) lands the iteration in the remainder.
        lo = np.full(loop_sizes[l], remainder + 1, dtype=np.int64)
        hi = np.full(loop_sizes[l], -1, dtype=np.int64)
        for la, lb, src, dst in edge_list:
            if lb != l or la >= l:
                continue
            pred_tiles = _tiles_at(tiles[la], src)
            touches += 2 * len(dst)
            np.minimum.at(lo, dst, pred_tiles)
            np.maximum.at(hi, dst, pred_tiles)
        for la, lb in zip(node_loops, node_loops[1:]):
            if lb == l:
                np.minimum(lo, tiles[la], out=lo)
                np.maximum(hi, tiles[la], out=hi)
        agreed = np.where(lo == hi, lo, remainder)
        agreed[hi == -1] = 0  # unconstrained iterations: first tile
        tiles.append(agreed.astype(np.int64))

    if counter is not None:
        counter["touches"] = counter.get("touches", 0) + touches + sum(loop_sizes)

    return TilingFunction(tiles, remainder + 1)
