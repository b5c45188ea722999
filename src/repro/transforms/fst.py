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
tile.  :func:`check_tiling` checks exactly this invariant for every
sparse tiling, and the runtime verifier re-checks the full
lexicographic condition.  ``edges[(la, lb)]`` holds one ``(src, dst)``
edge set per access (moldyn's ``(0, 1)``: ``((left, j), (right, j))``).

The paper's Section 6 overhead reduction — when two dependence sets
satisfy the same constraints, traverse only one — is expressed naturally
here: pass a single edge set for both the (i->j) and (j->k) hops when they
are symmetric, via ``symmetric_with``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InspectorFault
from repro.transforms.tile_schedule import TileSchedule

EdgeSet = Tuple[np.ndarray, np.ndarray]
Edges = Mapping[Tuple[int, int], Tuple[EdgeSet, ...]]


@dataclass
class TilingFunction:
    """The run-time tiling function ``theta(loop, iteration) -> tile``.

    ``tiles[l][x]`` is the tile of iteration ``x`` of loop ``l``; the
    executor runs ``for t: for l: for x in schedule[t][l]``.  A
    Gauss--Seidel sweep is a loop too (:mod:`.fst_sweeps`).
    """

    tiles: List[np.ndarray]
    num_tiles: int

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


@lru_cache(maxsize=4)
def loop_iterations(size: int) -> np.ndarray:
    """``arange(size)``, read-only and shared: an edge set's side that
    is every iteration of a loop, in order (:func:`_tiles_at`)."""
    iterations = np.arange(size, dtype=np.int64)
    iterations.flags.writeable = False
    return iterations


def _tiles_at(tiles: np.ndarray, iterations: np.ndarray) -> np.ndarray:
    """``tiles[iterations]``; the whole loop is ``tiles``, no gather."""
    n = len(tiles)
    if len(iterations) == n and iterations is loop_iterations(n):
        return tiles
    return tiles[iterations]


def _edge_list(edges: Edges) -> List[Tuple[int, int, np.ndarray, np.ndarray]]:
    """Every edge set as ``(la, lb, src, dst)``, ``int64``, pair by pair."""
    flat = [
        (la, lb, np.asarray(src, np.int64), np.asarray(dst, np.int64))
        for (la, lb), edge_sets in edges.items()
        for src, dst in edge_sets
    ]
    if any(src.ndim != 1 or src.shape != dst.shape for *_, src, dst in flat):
        raise ValueError("an edge set is two equal-length 1-D arrays")
    return flat


def full_sparse_tiling(
    loop_sizes: Sequence[int],
    seed_loop: int,
    seed_partition: np.ndarray,
    edges: Edges,
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
        Dependences between loops: ``edges[(la, lb)]`` is one
        ``(src_iters, dst_iters)`` edge set per access, with ``la < lb``
        meaning iteration ``src`` of loop ``la`` must run before iteration
        ``dst`` of loop ``lb``.
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

    resolved: Dict[Tuple[int, int], Tuple[EdgeSet, ...]] = dict(edges)
    if symmetric_with:
        for pair, source_pair in symmetric_with.items():
            if source_pair not in resolved:
                raise KeyError(
                    f"symmetric_with target {source_pair} has no edge set"
                )
            # Reuse the (already loaded) arrays: the mirrored dependence
            # (j -> k) has sources where the original had sinks.
            mirrored = pair[0] == source_pair[1]
            resolved[pair] = tuple(
                (dst, src) if mirrored else (src, dst)
                for src, dst in resolved[source_pair]
            )
    edge_list = _edge_list(resolved)

    touches = 0
    tiles: List[Optional[np.ndarray]] = [None] * num_loops
    tiles[seed_loop] = seed_partition.copy()

    # Grow backward: loops before the seed, nearest first.
    for l in range(seed_loop - 1, -1, -1):
        grown = np.full(loop_sizes[l], num_tiles - 1, dtype=np.int64)
        constrained = np.zeros(loop_sizes[l], dtype=bool)
        for la, lb, src, dst in edge_list:
            if la != l or tiles[lb] is None:
                continue
            np.minimum.at(grown, src, _tiles_at(tiles[lb], dst))
            constrained[src] = True
            touches += 2 * len(src)
        grown[~constrained] = 0
        tiles[l] = grown

    # Grow forward: loops after the seed, nearest first.
    for l in range(seed_loop + 1, num_loops):
        grown = np.zeros(loop_sizes[l], dtype=np.int64)
        for la, lb, src, dst in edge_list:
            if lb != l or tiles[la] is None:
                continue
            np.maximum.at(grown, dst, _tiles_at(tiles[la], src))
            touches += 2 * len(dst)
        tiles[l] = grown

    if counter is not None:
        counter["touches"] = counter.get("touches", 0) + touches + sum(loop_sizes)

    return TilingFunction([t for t in tiles], num_tiles)


def node_loop_edges(size: int, node_loops: Sequence[int]) -> Edges:
    """``tiles[la][n] <= tiles[lb][n]`` for each pair of consecutive
    ``node_loops`` (loops over one space of ``size`` iterations; by
    transitivity, every pair): a later node loop's iteration ``n``
    writes what an earlier one's read (moldyn's ``d(S1->S4:vx)``,
    ``Li(n)`` reads ``vx[n]`` before ``Lk(n)`` writes it).

    Check-only: no inspector traverses these edge sets.  Through a node
    that some interaction touches they follow from the interaction edges;
    for an untouched node nothing else constrains the pair.  Both sides
    are the shared :func:`loop_iterations`, so checking them gathers
    nothing."""
    iterations = loop_iterations(size)
    return {
        (la, lb): ((iterations, iterations),)
        for la, lb in zip(node_loops, node_loops[1:])
    }


def check_tiling(
    tiling: TilingFunction,
    loop_sizes: Sequence[int],
    edges: Edges,
    stage: str,
    node_loops: Sequence[int] = (),
) -> None:
    """Shape, tile range and ``tiles[la][src] <= tiles[lb][dst]`` over
    edges that point forward in Figure 14's order (``la < lb``, or
    ``la == lb`` and ``src < dst``): every sparse tiling's legality.
    ``node_loops`` adds the check-only :func:`node_loop_edges`, after
    ``edges``.  Raises :class:`~repro.errors.InspectorFault` naming
    ``stage`` and the first offending positions, counted across a pair's
    edge sets.
    """
    if len(tiling.tiles) != len(loop_sizes):
        raise InspectorFault(
            f"tiling function covers {len(tiling.tiles)} loops, "
            f"kernel has {len(loop_sizes)}",
            stage=stage,
        )
    for pos, (tiles, size) in enumerate(zip(tiling.tiles, loop_sizes)):
        if tiles is None or len(tiles) != size:
            raise InspectorFault(
                f"tiling of loop {pos} covers "
                f"{0 if tiles is None else len(tiles)} iterations, "
                f"expected {size}",
                stage=stage,
                hint="the tiling function was truncated or never grown "
                "across this loop",
            )
        bad = (tiles < 0) | (tiles >= max(tiling.num_tiles, 1))
        if bad.any():
            positions = np.flatnonzero(bad)[:5].tolist()
            raise InspectorFault(
                f"tiling of loop {pos} assigns tiles outside "
                f"[0, {tiling.num_tiles}) at",
                stage=stage,
                indices=positions,
            )
    checked = list(edges.items())
    if node_loops:
        size = loop_sizes[node_loops[0]]
        checked += node_loop_edges(size, node_loops).items()
    for (la, lb), edge_sets in checked:
        violated = [
            _tiles_at(tiling.tiles[la], src) > _tiles_at(tiling.tiles[lb], dst)
            for src, dst in edge_sets
        ]
        if not any(v.any() for v in violated):
            continue
        violated = np.concatenate(violated)
        raise InspectorFault(
            f"tiling violates {int(violated.sum())} "
            f"(loop {la} -> loop {lb}) dependences "
            "(source scheduled after destination) at edge",
            stage=stage,
            indices=np.flatnonzero(violated)[:5].tolist(),
            hint="the inspector mis-grew the tiles — e.g. a "
            "symmetric-dependence traversal with the wrong orientation",
        )
