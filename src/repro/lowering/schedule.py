"""Tile schedules for the tiled executors: the tile driver.

Every tier runs the tiles of a schedule in one order, ascending tile id
(the paper's Figure 14, ``do t / do x in sched(t, l)``), and inside a
tile each kernel loop in program order; an interaction loop gathers its
payload, then commits it.  The reduction fold is fixed by the schedule,
so every tier is bit-identical.  What this module holds:

* :func:`run_tile_phases` — the one Python loop over tiles, written
  over a *phase table* (one :class:`KernelPhase` per kernel loop), which
  :mod:`repro.lowering.emit_numpy` emits for the ``numpy`` tier; the C
  tier's ``_step`` (:mod:`repro.lowering.emit_c`) is the same loop in
  C.
* :class:`TileDAG` and its constructors :func:`tile_dag` /
  :func:`tile_dag_from_tiling` — the tile graph as a successor CSR plus
  in-degrees and the level-synchronous commit order.  No executor reads
  it: it is kept for the end-to-end harness, which still times its
  construction (and :func:`repro.incremental.repair_tile_dag`) as layer
  metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.transforms.sorting import distinct_edges, group_by
from repro.transforms.tile_schedule import TileSchedule


@dataclass(frozen=True)
class TileDAG:
    """The tile dependence graph of one tiling.

    ``indegree[t]`` is tile ``t``'s predecessor count;
    ``succ_indptr``/``succ_indices`` is the successor CSR; ``order`` is
    a level-synchronous run's commit order (waves outermost, ascending
    tile id inside each wave; no executor runs it) and ``wave[t]`` the
    tile's level, or ``None`` when the edge set was cyclic and no level
    assignment exists.
    """

    num_tiles: int
    indegree: np.ndarray
    succ_indptr: np.ndarray
    succ_indices: np.ndarray
    order: np.ndarray
    wave: Optional[np.ndarray] = None


def _build_dag(
    num_tiles: int,
    src: np.ndarray,
    dst: np.ndarray,
    order: np.ndarray,
    wave: Optional[np.ndarray],
) -> TileDAG:
    csr_order, succ_indptr = group_by(src, num_tiles, "tile edge sources")
    return TileDAG(
        num_tiles=num_tiles,
        indegree=np.bincount(dst, minlength=num_tiles).astype(np.int64),
        succ_indptr=succ_indptr,
        succ_indices=dst[csr_order].astype(np.int64),
        order=np.asarray(order, dtype=np.int64),
        wave=wave,
    )


def tile_dag(
    num_tiles: int,
    tile_src: np.ndarray,
    tile_dst: np.ndarray,
    waves=None,
) -> TileDAG:
    """Tile graph from explicit tile-graph edges.

    ``waves`` (a :class:`~repro.transforms.parallel.WavefrontSchedule`)
    pins the commit order to that schedule's sequence; without it the
    levels are recomputed from the edges.  A cyclic edge set still
    constructs: order falls back to ascending tile id and ``wave`` is
    ``None``.  Ids outside ``[0, num_tiles)`` are a
    :class:`~repro.errors.ValidationError` naming the position.
    """
    from repro.transforms.parallel import (
        CyclicDependenceError,
        wavefront_schedule,
    )

    src, dst = distinct_edges(tile_src, tile_dst, num_tiles, "tile edge")
    strict = src != dst
    src, dst = src[strict], dst[strict]
    if waves is None:
        try:
            waves = wavefront_schedule(num_tiles, src, dst)
        except CyclicDependenceError:
            return _build_dag(
                num_tiles, src, dst, np.arange(num_tiles, dtype=np.int64), None
            )
    groups = waves.groups()
    groups.check_extent(
        num_tiles, "wave groups cover {count} tiles, expected {extent}"
    )
    order = groups.flat
    return _build_dag(num_tiles, src, dst, order, waves.wave.astype(np.int64))


def tile_dag_from_tiling(tiling, edges, waves=None) -> TileDAG:
    """Tile graph from a tiling function + iteration-level dependences.

    Shares :func:`repro.transforms.parallel.tile_graph_edges` with the
    wavefront inspector so both views level the *same* graph.
    """
    from repro.transforms.parallel import tile_graph_edges

    tile_src, tile_dst = tile_graph_edges(tiling, edges)
    return tile_dag(tiling.num_tiles, tile_src, tile_dst, waves=waves)


# ---------------------------------------------------------------------------
# The driver of a phase table
#
# A phase table is one :class:`KernelPhase` per kernel loop, emitted by
# :mod:`repro.lowering.emit_numpy`.  The table says what a loop computes
# over an iteration subset; this function is the only Python that says
# in which order tiles run it.  Interaction phases are split
# gather/commit: the gather is a pure read, the commit applies the
# reduction.


@dataclass(frozen=True)
class KernelPhase:
    """One loop of a kernel, executable over an iteration subset.

    ``domain == "nodes"``: ``apply(arrays, iters)`` updates each node
    record independently (writes are disjoint across any iteration
    partition).  ``domain == "inters"``: ``gather(arrays, l, r)``
    computes the per-interaction contributions for endpoint index arrays
    ``l``/``r`` (pure), and ``commit(arrays, l, r, payload)`` applies
    them as reductions.
    """

    domain: str
    apply: Optional[Callable] = None
    gather: Optional[Callable] = None
    commit: Optional[Callable] = None


def run_tile_phases(
    phases: Sequence,
    arrays,
    left,
    right,
    schedule,
    num_steps: int = 1,
) -> None:
    """The tile driver (Figure 14): per time step, per tile in ascending
    id, per kernel loop in program order, the loop's phases over the
    tile's iterations — a node phase's update, or an interaction phase's
    gather and then its commit.  A range-form loop's tile reaches its
    phase as a ``slice`` (operand views, no gather), an index-form
    loop's as its iteration array (:meth:`~repro.transforms.
    tile_schedule.CSRLists.parts`); so under the trivial one-tile
    schedule each phase runs once over its whole range, which is the
    untiled executor.  ``schedule`` is a :class:`~repro.transforms.
    tile_schedule.TileSchedule` or a list of tiles (marshalled here).
    """
    if not isinstance(schedule, TileSchedule):
        schedule = TileSchedule.from_tiles(schedule)
    tiles = list(zip(*(loop.parts() for loop in schedule.loops)))
    for _step in range(num_steps):
        for tile in tiles:
            for phase, it in zip(phases, tile):
                if it is None:
                    continue
                if phase.domain == "nodes":
                    phase.apply(arrays, it)
                    continue
                l, r = left[it], right[it]
                phase.commit(arrays, l, r, phase.gather(arrays, l, r))


__all__ = [
    "KernelPhase",
    "TileDAG",
    "tile_dag",
    "tile_dag_from_tiling",
    "run_tile_phases",
]
