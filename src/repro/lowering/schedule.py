"""Tile schedules for the tiled executors: the wave driver and the counter DAG.

The wavefront executors run tiles in level-synchronous waves: every tile
of wave ``w`` finishes before any tile of wave ``w+1`` starts, and the
reduction commits inside a wave are applied serially in the wave's tile
order so parallel runs stay bit-identical to serial ones.  Correct — but
one oversized tile stalls the whole wave behind the barrier, and no
cross-wave progress is possible.

The hybrid static/dynamic recipe ("Hybrid Static/Dynamic Schedules for
Tiled Polyhedral Programs") keeps the static wave structure as the
*legality skeleton* and replaces the barrier with per-tile dependence
counters derived from the FST tile graph.  What this module holds of it:

* :class:`TileDAG` — the counter DAG: successor CSR, seed in-degrees,
  and the *deterministic commit order* (the exact sequence in which the
  level-synchronous executor applies tile commits: waves outermost,
  ascending tile id within a wave), its constructors, and the IRV006
  gate :func:`ensure_runnable` every tier passes a DAG through before
  running it.
* :func:`run_wave_phases` — the one Python loop over wave groups, written
  over a *phase table* (one ``KernelPhase`` per kernel loop).  The
  ``library`` and ``numpy`` tiers differ only in the table they hand it.
* :func:`counter_schedule` — what a ``scheduler="dynamic"`` call runs on
  any tier: the legality-checked DAG plus its commit order as wave
  groups (``dag.order`` split at level changes).

``scheduler`` picks a *driver at run time* over one compiled artifact.
The counter pool — each tile a three-stage task: **gather**
(pre-interaction node phases + payload gather, released when the tile's
counter hits zero, parallel), **commit** (apply the buffered
contributions, serialized in the commit order by a cooperatively-drained
commit token) and **post** (post-interaction node phases, parallel, then
decrement successor counters), over per-worker deques (LIFO pop, FIFO
steal) — exists in the C tier only (:mod:`repro.lowering.emit_c`).  The
Python tiers are level-synchronous under either name: a dynamic bind
gates the DAG and runs :func:`run_wave_phases` over the DAG's own wave
grouping.  (A Python-thread rendering of the pool measured 0.12-0.15x
of the serial wave loop at 2-4 threads and was deleted; see ROADMAP.)

Why any of this is bit-identical to the wave executor at any thread
count: every contribution to an element read or written by tile ``t``
comes from ``t`` itself or a DAG predecessor of ``t`` (an interaction
with an endpoint in ``t`` induces a tile-graph edge into ``t`` — the
atomic-tile condition), so gating a tile's gather on its counter — or on
its wave — reproduces exactly the values the wave executor would read;
and applying commits in the wave executor's own total order makes the
reduction fold identical float-by-float.  The commit buffers hold the
*raw per-interaction payloads*, not pre-summed partials — pre-summing
would regroup the reduction and change the rounding.

Knobs: ``REPRO_EXECUTOR_SCHEDULER`` (``wave`` | ``dynamic``) and
``REPRO_EXECUTOR_THREADS`` (worker count of the C counter pool; ``1`` is
a plain serial loop with zero scheduling overhead — and the only thing
the Python wave driver ever is), both resolved through
:mod:`repro.backends`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import backends
from repro.errors import LegalityError, ValidationError
from repro.transforms.sorting import distinct_edges, group_by
from repro.transforms.tile_schedule import CSRLists, as_wave_groups

#: Environment variable selecting the tile scheduler.
SCHEDULER_ENV = "REPRO_EXECUTOR_SCHEDULER"
#: Environment variable bounding a tiled executor's worker count.
THREADS_ENV = "REPRO_EXECUTOR_THREADS"
#: Valid scheduler names.
EXECUTOR_SCHEDULERS = ("wave", "dynamic")
#: The default: the paper-shaped level-synchronous executor.
DEFAULT_SCHEDULER = "wave"
#: Best-first ladder for ``auto`` (both rungs are always available).
SCHEDULER_LADDER = ("dynamic", "wave")


def resolve_scheduler(
    scheduler: Optional[str] = None, warn: bool = True
) -> backends.Resolution:
    """Resolve the scheduler selector: argument > env > ``wave``."""
    return backends.resolve(
        scheduler,
        subsystem="scheduler",
        choices=EXECUTOR_SCHEDULERS,
        env_var=SCHEDULER_ENV,
        default=DEFAULT_SCHEDULER,
        ladder=SCHEDULER_LADDER,
        warn=warn,
    )


def _visible_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_num_threads(num_threads: Optional[int] = None) -> int:
    """Worker count: argument > ``REPRO_EXECUTOR_THREADS`` > visible cores."""
    return backends.resolve_count(
        num_threads,
        env_var=THREADS_ENV,
        default=_visible_cores,
        what="scheduler thread count",
    )


@dataclass(frozen=True)
class TileDAG:
    """The dependence-counter DAG the dynamic scheduler executes.

    ``indegree[t]`` seeds tile ``t``'s counter (its predecessor count);
    ``succ_indptr``/``succ_indices`` is the successor CSR (who to
    decrement when ``t`` finishes); ``order`` is the deterministic
    commit sequence — the level-synchronous executor's own commit order
    (waves outermost, ascending tile id inside each wave) — and
    ``wave[t]`` the static level, or ``None`` when the edge set was
    cyclic and no level assignment exists (the verifier's IRV006 case).
    """

    num_tiles: int
    indegree: np.ndarray
    succ_indptr: np.ndarray
    succ_indices: np.ndarray
    order: np.ndarray
    wave: Optional[np.ndarray] = None

    @property
    def num_edges(self) -> int:
        return int(len(self.succ_indices))

    def successors(self, tile: int) -> np.ndarray:
        lo = int(self.succ_indptr[tile])
        hi = int(self.succ_indptr[tile + 1])
        return self.succ_indices[lo:hi]

    def stats(self) -> dict:
        """Doctor-friendly summary."""
        return {
            "num_tiles": int(self.num_tiles),
            "num_edges": self.num_edges,
            "num_waves": (
                int(self.wave.max()) + 1
                if self.wave is not None and len(self.wave)
                else 0
            ),
            "max_indegree": (
                int(self.indegree.max()) if len(self.indegree) else 0
            ),
            "roots": int(np.count_nonzero(self.indegree == 0)),
        }


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
    """Counter DAG from explicit tile-graph edges.

    ``waves`` (a :class:`~repro.transforms.parallel.WavefrontSchedule`)
    pins the commit order to that schedule's sequence; without it the
    levels are recomputed from the edges.  A cyclic edge set still
    *constructs* (order falls back to ascending tile id, ``wave`` is
    ``None``) so the verifier can diagnose it — IRV006 — instead of the
    constructor throwing; the execution engine refuses to run it.
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
    order = as_wave_groups(waves.groups(), num_tiles).flat
    return _build_dag(num_tiles, src, dst, order, waves.wave.astype(np.int64))


def tile_dag_from_tiling(tiling, edges, waves=None) -> TileDAG:
    """Counter DAG from a tiling function + iteration-level dependences.

    Shares :func:`repro.transforms.parallel.tile_graph_edges` with the
    wavefront inspector so both views level the *same* graph.
    """
    from repro.transforms.parallel import tile_graph_edges

    tile_src, tile_dst = tile_graph_edges(tiling, edges)
    return tile_dag(tiling.num_tiles, tile_src, tile_dst, waves=waves)


def tile_dag_from_waves(wave_groups, num_tiles: int) -> TileDAG:
    """Conservative counter DAG from wave groups alone.

    Without the tile graph the only safe assumption is the barrier
    itself: every tile of wave ``w`` depends on *every* tile of wave
    ``w-1``.  ``wave_groups=None`` degrades further to singleton waves
    (a serial chain in ascending tile order — exactly what the wave
    executor does without a wavefront schedule).  Callers that want
    cross-wave overlap must supply the real edges via
    :func:`tile_dag_from_tiling`.
    """
    if wave_groups is None:
        groups = CSRLists.singletons(num_tiles)
    else:
        groups = as_wave_groups(wave_groups, num_tiles)
    order = groups.flat
    wave = np.empty(num_tiles, dtype=np.int64)
    wave[order] = np.repeat(np.arange(len(groups)), groups.sizes())
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    for prev, group in zip(groups, groups[1:]):
        src_parts.append(np.repeat(prev, len(group)))
        dst_parts.append(np.tile(group, len(prev)))
    src = (
        np.concatenate(src_parts) if src_parts else np.empty(0, dtype=np.int64)
    )
    dst = (
        np.concatenate(dst_parts) if dst_parts else np.empty(0, dtype=np.int64)
    )
    return _build_dag(num_tiles, src, dst, order, wave)


def ensure_runnable(dag: TileDAG) -> None:
    """The IRV006 gate: refuse to execute a broken counter graph.

    A cycle deadlocks the C pool; an under-counted in-degree releases a
    tile before its predecessors committed (a silent race).  Both are
    cheap to check (one vectorized Kahn pass) relative to a bind, but
    not relative to a single executor call, so the verdict is cached on
    the (frozen) instance: each ``TileDAG`` is verified once, and every
    later run of the same object skips straight to execution.
    """
    if getattr(dag, "_runnable", False):
        return
    from repro.analysis.irverify import verify_counter_dag

    problems = verify_counter_dag(dag)
    errors = [d for d in problems if d.severity == "error"]
    if errors:
        detail = "; ".join(f"{d.code}: {d.message}" for d in errors)
        raise LegalityError(
            f"counter DAG rejected by the scheduler verifier: {detail}"
        )
    object.__setattr__(dag, "_runnable", True)


def static_levels(dag: TileDAG) -> np.ndarray:
    """Per-tile wavefront levels, recomputed when ``dag.wave`` is absent.

    The public constructors always populate ``wave`` for acyclic graphs;
    this covers hand-built DAGs so :func:`counter_schedule` (which
    splits the commit order into waves) never needs a caller-supplied
    level assignment.  Raises :class:`LegalityError` on a cycle.
    """
    if dag.wave is not None:
        return np.asarray(dag.wave, dtype=np.int64)
    from repro.transforms.parallel import (
        CyclicDependenceError,
        wavefront_schedule,
    )

    src = np.repeat(
        np.arange(dag.num_tiles, dtype=np.int64), np.diff(dag.succ_indptr)
    )
    try:
        waves = wavefront_schedule(dag.num_tiles, src, dag.succ_indices)
    except CyclicDependenceError as exc:
        raise LegalityError(f"counter DAG is cyclic: {exc}") from None
    return waves.wave.astype(np.int64)


def counter_schedule(
    dag: Optional[TileDAG],
    wave_groups: Optional[CSRLists],
    num_tiles: int,
    stage: str = "executor",
) -> Tuple[TileDAG, CSRLists]:
    """What a ``scheduler="dynamic"`` call runs, on every tier.

    The DAG — the caller's, or the conservative barrier DAG of
    ``wave_groups`` — past the IRV006 gate, and its commit order as wave
    groups: ``dag.order`` split where the static level changes (tiles of
    one level share no edge, so every group is an antichain; computed
    once per ``TileDAG``, like the gate's verdict).  The groups are the
    ``(wave_tiles, wave_off)`` the C entry point receives and what the
    Python tiers hand :func:`run_wave_phases`.

    There is one commit order per call: ``wave_groups`` passed beside a
    ``dag`` built from another wavefront would have the two schedulers
    fold the reduction differently, so it is a :class:`ValidationError`
    naming the first position where the two orders part.
    """
    if dag is None:  # the barrier DAG's waves are the groups it is built from
        if wave_groups is None:
            wave_groups = CSRLists.singletons(num_tiles)
        dag = tile_dag_from_waves(wave_groups, num_tiles)
        ensure_runnable(dag)
        return dag, wave_groups
    ensure_runnable(dag)
    groups = getattr(dag, "_wave_groups", None)
    if groups is None:
        order = np.array(dag.order, dtype=np.int64)
        levels = static_levels(dag)[order]
        starts = np.flatnonzero(np.diff(levels, prepend=-1))
        groups = CSRLists(order, np.append(starts, len(order)))
        object.__setattr__(dag, "_wave_groups", groups)
    groups.check_extent(
        num_tiles, "counter DAG covers {count} tiles, expected {extent}"
    )
    if wave_groups is not None:
        differs = np.flatnonzero(wave_groups.flat != groups.flat)
        if len(differs):
            pos = int(differs[0])
            raise ValidationError(
                f"wave_groups and dag disagree on the commit order: position "
                f"{pos} is tile {int(wave_groups.flat[pos])} in wave_groups, "
                f"tile {int(groups.flat[pos])} in dag.order",
                stage=stage,
                indices=[pos],
                hint="build the dag with waves= the same wavefront schedule, "
                "or pass only one of the two",
            )
    return dag, groups


# ---------------------------------------------------------------------------
# The driver of a phase table
#
# A phase table is one :class:`~repro.kernels.executors.KernelPhase` per
# kernel loop — hand-written (``PHASE_FUNCTIONS``, the ``library`` tier)
# or emitted (:mod:`repro.lowering.emit_numpy`, the ``numpy`` tier).  The
# table says what a loop computes over an iteration subset; this function
# is the only Python that says in which order tiles run it.


def run_wave_phases(
    phases: Sequence,
    arrays,
    left,
    right,
    schedule,
    wave_groups=None,
    num_steps: int = 1,
    num_threads: Optional[int] = None,
) -> None:
    """The level-synchronous wave driver (Figure 14 under a wavefront).

    Tiles within a wave share no dependences, so each kernel phase runs
    as a stage across the whole wave: node phases update disjoint
    iteration subsets; interaction phases compute the pure gathers of
    all the wave's tiles first, then apply the reduction commits **in
    the wave's tile order**.  One thread, under every setting:
    ``num_threads`` is accepted for parity with the C entry point, whose
    counter pool it bounds, and changes nothing here (NumPy calls this
    small do not overlap under the GIL; see ROADMAP for the numbers).
    ``wave_groups=None`` is every tile its own wave: serial tile order.
    """
    if wave_groups is None:
        wave_groups = [[t] for t in range(len(schedule))]
    for _step in range(num_steps):
        for group in wave_groups:
            tiles = [schedule[int(t)] for t in group]
            for pos, phase in enumerate(phases):
                work = [t[pos] for t in tiles if len(t[pos])]
                if phase.domain == "nodes":
                    for it in work:
                        phase.apply(arrays, it)
                    continue
                ends = [(left[it], right[it]) for it in work]
                payloads = [phase.gather(arrays, l, r) for l, r in ends]
                for (l, r), payload in zip(ends, payloads):
                    phase.commit(arrays, l, r, payload)


def scheduler_report() -> dict:
    """Doctor payload: how the scheduler knobs currently resolve."""
    resolution = resolve_scheduler(warn=False)
    return {
        "scheduler": resolution.backend,
        "source": resolution.source,
        "requested": resolution.requested,
        "env": SCHEDULER_ENV,
        "threads": resolve_num_threads(),
        "threads_env": THREADS_ENV,
        "choices": list(EXECUTOR_SCHEDULERS),
    }


__all__ = [
    "SCHEDULER_ENV",
    "THREADS_ENV",
    "EXECUTOR_SCHEDULERS",
    "DEFAULT_SCHEDULER",
    "SCHEDULER_LADDER",
    "TileDAG",
    "tile_dag",
    "tile_dag_from_tiling",
    "tile_dag_from_waves",
    "ensure_runnable",
    "static_levels",
    "resolve_scheduler",
    "resolve_num_threads",
    "counter_schedule",
    "run_wave_phases",
    "scheduler_report",
]
