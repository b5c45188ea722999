"""Full sparse tiling (Strout, Carter, Ferrante, ICCS'01 / this paper).

Sparse tiling reorders iterations *across* loops even when data
dependences connect them: the inspector traverses the dependences (not the
data mappings) and grows tiles from a seed partitioning of one loop.  A
tile is a slice through every loop that can execute atomically; running
tile by tile improves locality between the loops (paper Figure 5).

Full sparse tiling grows tiles *side by side*:

* the seed loop's iterations get their seed partition ids;
* loops **before** the seed (in program order) grow backward —
  ``tile(a) = min over dependences a -> b of tile(b)`` — so every source
  lands no later than its sinks;
* loops **after** the seed grow forward —
  ``tile(b) = max over dependences a -> b of tile(a)``.

Executing tiles in increasing id, and loops in program order within a
tile, then respects every cross-loop dependence:
``tile(src) <= tile(dst)`` with program order breaking the tie inside a
tile.  :func:`verify_tiling` checks exactly this invariant, and the
runtime verifier re-checks the full lexicographic condition.

The paper's Section 6 overhead reduction — when two dependence sets
satisfy the same constraints, traverse only one — is expressed naturally
here: pass a single edge set for both the (i->j) and (j->k) hops when they
are symmetric, via ``symmetric_with``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.transforms.tile_schedule import TileSchedule

EdgeSet = Tuple[np.ndarray, np.ndarray]


@dataclass
class TilingFunction:
    """The run-time tiling function ``theta(loop, iteration) -> tile``.

    ``tiles[l][x]`` is the tile of iteration ``x`` of loop ``l``; the
    executor runs ``for t: for l: for x in schedule[t][l]``.
    """

    tiles: List[np.ndarray]
    num_tiles: int

    def __call__(self, loop: int, iteration: int) -> int:
        return int(self.tiles[loop][iteration])

    def schedule(self) -> TileSchedule:
        """``schedule[t][l]``: iterations of loop ``l`` in tile ``t``,
        in increasing iteration order (the paper's ``sched(t, l)``).

        One read-only marshalled object
        (:class:`~repro.transforms.tile_schedule.TileSchedule`): per loop
        a flat iteration array + tile offsets from one stable counting
        sort — ``O(sum loop sizes)``, no per-tile work — in range form
        wherever the loop is already ordered by tile.
        """
        return TileSchedule.from_tiling(self.tiles, self.num_tiles)

    def tile_sizes(self) -> np.ndarray:
        """Total iterations per tile (across all loops)."""
        sizes = np.zeros(self.num_tiles, dtype=np.int64)
        for loop_tiles in self.tiles:
            np.add.at(sizes, loop_tiles, 1)
        return sizes

    def reorder_iterations(self, loop: int, delta: np.ndarray) -> None:
        """Renumber one loop's iterations (``delta[old] = new``).

        The loop's tile array is replaced, never written into, so an
        array handed out earlier keeps its values."""
        remapped = np.empty_like(self.tiles[loop])
        remapped[delta] = self.tiles[loop]
        self.tiles[loop] = remapped


def _normalize_edges(edges: EdgeSet) -> Tuple[np.ndarray, np.ndarray]:
    a, b = edges
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError("edge endpoint arrays must have equal length")
    return a, b


def full_sparse_tiling(
    loop_sizes: Sequence[int],
    seed_loop: int,
    seed_partition: np.ndarray,
    edges: Mapping[Tuple[int, int], EdgeSet],
    symmetric_with: Optional[Mapping[Tuple[int, int], Tuple[int, int]]] = None,
    counter: Optional[dict] = None,
) -> TilingFunction:
    """Grow tiles from a seed partitioning across all loops.

    Parameters
    ----------
    loop_sizes:
        Iteration count of each loop, in program order.
    seed_loop:
        Which loop carries the seed partitioning.
    seed_partition:
        Partition id per seed-loop iteration (dense ids from 0).
    edges:
        Dependences between loops: ``edges[(la, lb)] = (src_iters,
        dst_iters)`` with ``la < lb`` meaning iteration ``src`` of loop
        ``la`` must run before iteration ``dst`` of loop ``lb``.
    symmetric_with:
        Overhead reduction (paper Section 6): map a loop pair to another
        pair whose edge set satisfies the same constraints; the inspector
        reuses that traversal instead of walking a second set.  For moldyn,
        ``{(1, 2): (0, 1)}`` with the (0,1) edges being ``(left[j], j)``:
        the (j -> k) dependences mirror the (i -> j) ones.
    counter:
        Optional overhead accounting dict (``counter["touches"]``).

    Returns the :class:`TilingFunction`.
    """
    num_loops = len(loop_sizes)
    seed_partition = np.asarray(seed_partition, dtype=np.int64)
    if len(seed_partition) != loop_sizes[seed_loop]:
        raise ValueError("seed partition size must match the seed loop size")
    num_tiles = int(seed_partition.max()) + 1 if len(seed_partition) else 0

    resolved: Dict[Tuple[int, int], EdgeSet] = {}
    for pair, e in edges.items():
        resolved[pair] = _normalize_edges(e)
    if symmetric_with:
        for pair, source_pair in symmetric_with.items():
            if source_pair not in resolved:
                raise KeyError(
                    f"symmetric_with target {source_pair} has no edge set"
                )
            # Reuse the (already loaded) arrays: the mirrored dependence
            # (j -> k) has sources where the original had sinks.
            src, dst = resolved[source_pair]
            resolved[pair] = (dst, src) if pair[0] == source_pair[1] else (src, dst)

    touches = 0
    tiles: List[Optional[np.ndarray]] = [None] * num_loops
    tiles[seed_loop] = seed_partition.copy()

    # Grow backward: loops before the seed, nearest first.
    for l in range(seed_loop - 1, -1, -1):
        grown = np.full(loop_sizes[l], num_tiles - 1, dtype=np.int64)
        constrained = np.zeros(loop_sizes[l], dtype=bool)
        for (la, lb), (src, dst) in resolved.items():
            if la != l or tiles[lb] is None:
                continue
            np.minimum.at(grown, src, tiles[lb][dst])
            constrained[src] = True
            touches += 2 * len(src)
        grown[~constrained] = 0
        tiles[l] = grown

    # Grow forward: loops after the seed, nearest first.
    for l in range(seed_loop + 1, num_loops):
        grown = np.zeros(loop_sizes[l], dtype=np.int64)
        for (la, lb), (src, dst) in resolved.items():
            if lb != l or tiles[la] is None:
                continue
            np.maximum.at(grown, dst, tiles[la][src])
            touches += 2 * len(dst)
        tiles[l] = grown

    if counter is not None:
        counter["touches"] = counter.get("touches", 0) + touches + sum(loop_sizes)

    return TilingFunction([t for t in tiles], num_tiles)


def verify_tiling(
    tiling: TilingFunction,
    edges: Mapping[Tuple[int, int], EdgeSet],
) -> bool:
    """Check ``tile(src) <= tile(dst)`` for every cross-loop dependence.

    Program order inside a tile handles the equal case (loops execute in
    order within a tile), so ``<=`` is the full atomic-tile condition.
    """
    for (la, lb), (src, dst) in edges.items():
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if la < lb:
            if not np.all(tiling.tiles[la][src] <= tiling.tiles[lb][dst]):
                return False
        else:
            if not np.all(tiling.tiles[la][src] < tiling.tiles[lb][dst]):
                return False
    return True
