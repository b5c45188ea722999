"""Run-time reordering transformations for parallelism (paper Section 4).

    "Run-time reordering transformations for partial parallelism traverse
    all the data dependences within an iteration subspace and create a
    run-time parallel schedule with maximal parallelism [25].  Parallelism
    is expressed within our framework by mapping parallel iterations to
    the same point in the unified iteration space."

    "By mapping all independent tiles to the same tile number, parallelism
    between tiles can be expressed."

Two inspectors:

* :func:`wavefront_schedule` — Rauchwerger-style run-time partial
  parallelization: topological levels of the iteration dependence graph.
  All iterations of one wavefront are mutually independent; the
  iteration-reordering transformation maps iteration ``i`` to
  ``[wave(i), i]`` and every iteration of a wave shares the leading
  coordinate — the framework's encoding of "same point".
* :func:`tile_wavefronts` — the same idea one level up: levels of the
  inter-tile dependence graph, giving the coarser-grained parallelism the
  paper credits sparse tiling with (Section 2.3, item 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.transforms.fst import Edges, TilingFunction, _edge_list, _tiles_at
from repro.transforms.sorting import bounded_keys, distinct_edges, group_by
from repro.transforms.tile_schedule import CSRLists


@dataclass
class WavefrontSchedule:
    """Levels of a dependence DAG: ``wave[i]`` is iteration ``i``'s level."""

    wave: np.ndarray
    num_waves: int
    _groups: Optional[CSRLists] = field(
        default=None, init=False, repr=False, compare=False
    )

    def groups(self) -> CSRLists:
        """``groups()[w]``: the iterations of wave ``w`` (parallel set),
        ascending — views of one CSR (concatenated iterations + wave
        offsets) built by a stable counting sort on first use."""
        if self._groups is None:
            self._groups = CSRLists.from_labels(
                self.wave, self.num_waves, "wave"
            )
        return self._groups

    @property
    def max_parallelism(self) -> int:
        if not len(self.wave):
            return 0
        return int(self.groups().sizes().max())

    @property
    def average_parallelism(self) -> float:
        if self.num_waves == 0:
            return 0.0
        return len(self.wave) / self.num_waves

    def wave_skew(self, tile_sizes: np.ndarray) -> dict:
        """Per-wave tile-size histogram and skew statistics.

        ``tile_sizes[t]`` is tile ``t``'s iteration count (e.g. from
        :meth:`~repro.transforms.fst.TilingFunction.tile_sizes`).  A
        level-synchronous executor's span is bounded below by the sum of
        each wave's largest tile (``critical_path``): one oversized tile
        stalls its whole wave behind the barrier.  ``skew`` per wave is
        ``max / mean`` — 1.0 means perfectly balanced, large values mean
        barriers burn idle time.  Doctor reports these numbers instead
        of recomputing them ad hoc.
        """
        sizes = np.asarray(tile_sizes, dtype=np.int64)
        waves = []
        critical_path = 0
        for w, group in enumerate(self.groups()):
            in_wave = sizes[group]
            total = int(in_wave.sum())
            largest = int(in_wave.max()) if len(in_wave) else 0
            mean = float(in_wave.mean()) if len(in_wave) else 0.0
            critical_path += largest
            waves.append(
                {
                    "wave": w,
                    "tiles": int(len(group)),
                    "total_iterations": total,
                    "max_tile": largest,
                    "mean_tile": mean,
                    "skew": float(largest / mean) if mean else 1.0,
                }
            )
        total_work = int(sizes.sum())
        skews = [entry["skew"] for entry in waves]
        return {
            "num_waves": int(self.num_waves),
            "num_tiles": int(len(sizes)),
            "total_work": total_work,
            "critical_path": int(critical_path),
            # Work over span: the most a barrier executor can ever win.
            "wave_parallelism": (
                float(total_work / critical_path) if critical_path else 1.0
            ),
            "max_skew": max(skews) if skews else 1.0,
            "mean_skew": float(np.mean(skews)) if skews else 1.0,
            "waves": waves,
        }


class CyclicDependenceError(Exception):
    """The dependence edges contain a cycle — no parallel schedule exists."""


def wavefront_schedule(
    num_iterations: int,
    dep_sources: np.ndarray,
    dep_targets: np.ndarray,
    counter: Optional[dict] = None,
) -> WavefrontSchedule:
    """Longest-path levels of the iteration dependence DAG.

    ``dep_sources[e] -> dep_targets[e]`` means the source iteration must
    run before the target.  Returns the maximal-parallelism schedule:
    ``wave(src) < wave(dst)`` for every dependence, with every iteration
    scheduled as early as possible.
    """
    src = np.asarray(dep_sources, dtype=np.int64)
    dst = np.asarray(dep_targets, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("dependence endpoint arrays must align")

    order, offsets = group_by(src, num_iterations, "dependence sources")
    dst = bounded_keys(dst, num_iterations, "dependence targets")
    sorted_dst = dst[order]
    indegree = np.bincount(dst, minlength=num_iterations)

    # Level-synchronous Kahn: retire the whole zero-indegree frontier per
    # round, relaxing all of its out-edges with bulk scatter-reductions.
    # A node enters the frontier only after every predecessor retired, so
    # ``wave`` accumulates the true longest-path level — identical to a
    # one-node-at-a-time worklist, without the per-edge Python loop.
    wave = np.zeros(num_iterations, dtype=np.int64)
    frontier = np.flatnonzero(indegree == 0)
    stamp = np.empty(num_iterations, dtype=np.int64)
    processed = 0
    while frontier.size:
        processed += frontier.size
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        total = int(counts.sum())
        if not total:
            break
        # Ragged CSR gather: positions of every out-edge of the frontier.
        out_start = np.cumsum(counts) - counts
        idx = (
            np.arange(total, dtype=np.int64)
            - np.repeat(out_start, counts)
            + np.repeat(starts, counts)
        )
        targets = sorted_dst[idx]
        np.maximum.at(wave, targets, np.repeat(wave[frontier] + 1, counts))
        np.subtract.at(indegree, targets, 1)
        # ``targets`` repeats nodes fed by several frontier edges: each
        # writes its position into the node's stamp, one write survives,
        # and that occurrence alone enters the new frontier.
        ready = targets[indegree[targets] == 0]
        position = np.arange(len(ready), dtype=np.int64)
        stamp[ready] = position
        frontier = ready[stamp[ready] == position]
    if processed != num_iterations:
        raise CyclicDependenceError(
            f"{num_iterations - processed} iterations sit on dependence cycles"
        )
    if counter is not None:
        counter["touches"] = counter.get("touches", 0) + (
            2 * len(src) + 2 * num_iterations
        )
    num_waves = int(wave.max()) + 1 if num_iterations else 0
    return WavefrontSchedule(wave, num_waves)


def tile_graph_edges(
    tiling: TilingFunction,
    edges: Edges,
    counter: Optional[dict] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The strict cross-tile dependence edges induced by ``edges``.

    Maps every iteration-level dependence through the tiling function and
    keeps the distinct ``tile(src) != tile(dst)`` pairs, sorted by
    ``(src, dst)`` — the irredundant inter-tile flows.  This is the
    single source of the inter-tile graph: :func:`tile_wavefronts` levels
    it, and :func:`repro.lowering.schedule.tile_dag` stores it as a
    successor CSR, so both views describe the same graph.
    """
    src_parts = [np.empty(0, dtype=np.int64)]
    dst_parts = [np.empty(0, dtype=np.int64)]
    for la, lb, src, dst in _edge_list(edges):
        t_src = _tiles_at(tiling.tiles[la], src)
        t_dst = _tiles_at(tiling.tiles[lb], dst)
        strict = t_src != t_dst
        src_parts.append(t_src[strict])
        dst_parts.append(t_dst[strict])
        if counter is not None:
            counter["touches"] = counter.get("touches", 0) + 2 * len(t_src)
    return distinct_edges(
        np.concatenate(src_parts),
        np.concatenate(dst_parts),
        tiling.num_tiles,
        "tile edge",
    )


def tile_wavefronts(
    tiling: TilingFunction,
    edges: Edges,
    counter: Optional[dict] = None,
) -> WavefrontSchedule:
    """Wavefronts of the inter-tile dependence graph.

    Tiles in the same wave share no dependences and may run concurrently;
    within a wave the framework maps them "to the same tile number".
    Sparse tiling's sequential legality gives ``tile(src) <= tile(dst)``,
    so the tile graph (built from the strict cross-tile dependences) is
    acyclic by construction.
    """
    tile_src, tile_dst = tile_graph_edges(tiling, edges, counter)
    return wavefront_schedule(tiling.num_tiles, tile_src, tile_dst, counter)
