"""Memoize composed-inspector runs: whole binds, and single stages.

The plan cache holds two kinds of entry, both laid out here:

* a **plan entry** — one whole bind, in the memory tier and on disk,
  under the bind fingerprint (plan x dataset).  A hit rehydrates it and
  runs no stage;
* a **stage entry** — one stage's *inspector output* (its reordering or
  tiling function, plus the touches its inspector charged), in the
  memory tier only, under the stage fingerprint (dataset x failure
  policy x step prefix; see
  :func:`~repro.plancache.fingerprint.stage_fingerprints`).  A cold bind
  offers each stage the entry of its prefix through a
  :class:`StageMemo`: on a *replay* the step shell skips its inspector
  and applies the stored function with the same mechanics a cold stage
  runs (permutation check, index-array adjustment, payload move under
  the bind's own remap policy, registration, charges, tiling guard), so
  the replayed stage is bit-identical to a cold one.  Only a stage that
  ran its inspector and finished ``ok`` is kept.  Stage entries never
  go to disk (an artifact write costs more than most inspectors), share
  the memory tier's byte budget and LRU order, and leave with
  ``clear()``; their arrays are read-only.

Plan-entry serialization contract
---------------------------------

An entry stores what its two readers read, each fact once.  A hit
(:func:`entry_to_result`) reads the transformed ``left``/``right``,
``sigma`` (the total node data reordering) and the tiling (one
``tile__<loop>`` array per loop); a delta-bind reads the iteration
reorderings' stage functions (``sf__lg1``, ...) through
:func:`stage_function`.  A node loop's iteration reordering *is*
``sigma``, the interaction loop's composes the stored ``sf__*``, and only
the verifiers read the other stage functions (``cp0``, ``theta2``, ...):
a hit ran no stage, so its ``stage_functions`` is ``None``.  Each array
is stored at the narrowest signed integer width that holds its values
and widened back to ``int64`` on rehydration.  The
:class:`~repro.runtime.report.PipelineReport` rides in the JSON metadata.

One codec rule holds for both entry kinds: every array is frozen
(:func:`_frozen`: narrowed, never sharing memory with the result it came
from, read-only; the disk tier loads its arrays read-only too), so a
write into an entry raises ``ValueError`` instead of changing what later
binds serve.

The node *payload* is deliberately **not** stored: a hit re-applies the
cached ``sigma`` to the live payload (one vectorized gather per array),
so a cached plan binds correctly to any payload values over the same
index arrays — and the rehydrated executor state is bit-identical to
what the cold inspectors would have produced.

A hit's response digests (``InspectorResult.digests``, the names of
``service.result_digests``) are facts, derived once and never hashed
per request: the ``left``/``right``/``sigma`` digests, over the widened
``int64`` arrays a hit serves, are a fact of the entry
(:meth:`~repro.plancache.store.CacheEntry.digests`); the payload digests
are a fact of the live dataset under the entry's ``sigma``
(``KernelData.derived(("served-payload-digests", <sigma digest>))``).
Neither is persisted: not in the metadata, not on disk, so an entry
loaded from disk derives its own.  A cold or patched bind has no such
facts; its ``digests`` is ``None`` and its response hashes its arrays.

Safety: rehydration re-checks shape agreement against the live dataset
and re-validates ``sigma`` as a permutation; any inconsistency demotes
the entry to a *safe miss* (inspectors re-run), never a wrong reuse.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.kernels.data import KernelData
from repro.plancache.fingerprint import index_digests, payload_digests
from repro.plancache.store import CacheEntry, PlanCache
from repro.runtime.report import PipelineReport
from repro.transforms.base import ReorderingFunction
from repro.transforms.fst import TilingFunction

#: Storage widths narrower than ``int64``, narrowest first.
_NARROW_WIDTHS = (np.int8, np.int16, np.int32)


def _stage_names(steps) -> List[str]:
    return [step.name for step in steps]


def _narrowest(array) -> np.ndarray:
    """``array`` at the narrowest signed width that holds its values."""
    array = np.asarray(array)
    low, high = int(array.min(initial=0)), int(array.max(initial=0))
    for width in _NARROW_WIDTHS:
        info = np.iinfo(width)
        if info.min <= low and high <= info.max:
            return array.astype(width)
    return array.astype(np.int64, copy=False)


def _frozen(array) -> np.ndarray:
    """``array`` at its narrowest width, never sharing memory with it,
    and read-only: a caller writing it raises instead of changing what
    later binds serve or replay, or a digest derived from it."""
    stored = _narrowest(array)
    if np.may_share_memory(stored, array):
        stored = stored.copy()
    stored.setflags(write=False)
    return stored


def stage_function(entry: CacheEntry, name: str) -> Optional[np.ndarray]:
    """Iteration reordering ``name``'s stage function as int64, or None."""
    array = entry.arrays.get(f"sf__{name}")
    return None if array is None else array.astype(np.int64)


# ---------------------------------------------------------------------------
# InspectorResult -> CacheEntry


def result_to_entry(result, steps) -> CacheEntry:
    """Pack a finished inspector run into a storable entry."""
    arrays: Dict[str, np.ndarray] = {
        "left": result.transformed.left,
        "right": result.transformed.right,
        "sigma": result.sigma_nodes.array,
    }
    if result.tiling is not None:
        for loop, tiles in enumerate(result.tiling.tiles):
            arrays[f"tile__{loop}"] = tiles
    for index, step in enumerate(steps):
        name = f"{step.symbol_prefix}{index}"
        if step.symbol_domain == "inters" and name in result.stage_functions:
            arrays[f"sf__{name}"] = result.stage_functions[name]

    report = result.report
    meta = {
        "kernel_name": result.transformed.kernel_name,
        "dataset_name": result.transformed.dataset_name,
        "num_nodes": int(result.transformed.num_nodes),
        "num_inter": int(result.transformed.num_inter),
        "num_tiles": (
            int(result.tiling.num_tiles) if result.tiling is not None else None
        ),
        "overhead": {k: int(v) for k, v in result.overhead.items()},
        "data_moves": int(result.data_moves),
        "step_names": _stage_names(steps),
        "report": report.to_dict() if report is not None else None,
    }
    return CacheEntry(
        meta=meta, arrays={key: _frozen(array) for key, array in arrays.items()}
    )


# ---------------------------------------------------------------------------
# CacheEntry -> InspectorResult


def entry_to_result(entry: CacheEntry, data: KernelData):
    """Rehydrate a cached plan against the *live* dataset payload.

    Raises on any inconsistency (the caller treats that as a corrupt
    entry and falls back to a cold run).
    """
    from repro.runtime.inspector import InspectorResult

    meta = entry.meta
    if (
        meta["kernel_name"] != data.kernel_name
        or meta["num_nodes"] != data.num_nodes
        or meta["num_inter"] != data.num_inter
    ):
        raise ValueError("cached entry does not match the live dataset")

    sigma = ReorderingFunction("sigma", entry.arrays["sigma"])
    if len(sigma) != data.num_nodes:
        raise ValueError("cached sigma length mismatch")
    sigma.require_permutation(stage="plancache")

    left = entry.arrays["left"].astype(np.int64, copy=True)
    right = entry.arrays["right"].astype(np.int64, copy=True)
    if len(left) != data.num_inter or len(right) != data.num_inter:
        raise ValueError("cached index-array length mismatch")

    transformed = KernelData(
        kernel_name=meta["kernel_name"],
        dataset_name=meta["dataset_name"],
        num_nodes=data.num_nodes,
        left=left,
        right=right,
        # Replay the total data reordering on the *live* payload — the
        # composed inspectors' payload moves collapse to one gather.
        arrays={
            name: sigma.apply_to_data(array)
            for name, array in data.arrays.items()
        },
    )

    tiling = None
    if meta["num_tiles"] is not None:
        tiles = [
            entry.arrays[f"tile__{loop}"].astype(np.int64, copy=True)
            for loop in range(len(transformed.loops))
        ]
        tiling = TilingFunction(tiles, int(meta["num_tiles"]))

    report = (
        PipelineReport.from_dict(meta["report"])
        if meta.get("report") is not None
        else None
    )
    if report is not None:
        report.cache = "hit"
        for stage in report.stages:
            stage.elapsed_s = 0.0  # nothing ran on this bind
            stage.replayed = False

    # The served state's digests are facts: the index part of the entry,
    # the payload part of the live dataset under this sigma.
    index = entry.digests(lambda: index_digests(left, right, sigma.array))
    payload = data.derived(
        ("served-payload-digests", index["sigma"]),
        lambda: payload_digests(transformed.arrays),
    )
    return InspectorResult(
        transformed=transformed,
        sigma_nodes=sigma,
        tiling=tiling,
        overhead=dict(meta["overhead"]),
        data_moves=int(meta["data_moves"]),
        stage_functions=None,  # nothing ran on this bind
        report=report,
        digests={**index, **payload},
    )


# ---------------------------------------------------------------------------
# StageOutput <-> CacheEntry


def output_to_entry(output) -> CacheEntry:
    """Pack one stage's inspector output into a stage entry."""
    function = output.function
    meta = {"touches": [[phase, int(n)] for phase, n in output.touches]}
    if isinstance(function, TilingFunction):
        meta["num_tiles"] = int(function.num_tiles)
        arrays = {
            f"tile__{loop}": tiles for loop, tiles in enumerate(function.tiles)
        }
    else:
        meta["name"] = function.name
        arrays = {"sigma": function.array}
    return CacheEntry(
        meta=meta, arrays={key: _frozen(array) for key, array in arrays.items()}
    )


def entry_to_output(entry: CacheEntry):
    """A stage entry's inspector output, in arrays of its own (``int64``)."""
    from repro.runtime.inspector import StageOutput

    meta = entry.meta
    if "num_tiles" in meta:
        tiles = [
            entry.arrays[f"tile__{loop}"].astype(np.int64)
            for loop in range(len(entry.arrays))
        ]
        function = TilingFunction(tiles, meta["num_tiles"])
    else:
        function = ReorderingFunction(
            meta["name"], entry.arrays["sigma"].astype(np.int64)
        )
    return StageOutput(function, tuple(map(tuple, meta["touches"])))


class StageMemo:
    """One cold bind's view of the stage memo: stage ``index``'s output
    lives under ``keys[index]`` in ``cache``'s memory tier."""

    def __init__(self, cache: PlanCache, keys: List[str], steps):
        self.cache = cache
        self.keys = keys
        self.names = _stage_names(steps)

    def recall(self, index: int):
        """The stage's memoised output, or ``None`` (run the inspector)."""
        entry = self.cache.get_stage(self.keys[index])
        if entry is None:
            return None
        self.cache.stats.record_replay(self.names[index])
        return entry_to_output(entry)

    def keep(self, index: int, output) -> None:
        """Memoise the output of a stage that finished ``ok``."""
        self.cache.put_stage(self.keys[index], output_to_entry(output))


# ---------------------------------------------------------------------------
# cache-facing operations


def lookup(
    cache: PlanCache, key: str, data: KernelData, steps
) -> Optional["object"]:
    """Fetch + rehydrate; ``None`` (and counters) on any kind of miss."""
    names = _stage_names(steps)
    entry = cache.get(key)
    if entry is None:
        cache.stats.record_miss(names)
        return None
    try:
        result = entry_to_result(entry, data)
    except Exception:
        # An entry that loaded but does not rehydrate consistently is as
        # corrupt as an unreadable one: drop it and re-run cold.
        cache.stats.corrupt += 1
        cache.discard(key)
        cache.stats.record_miss(names)
        return None
    cache.stats.record_hit(names, entry.meta.get("tier", "memory"))
    return result


def store(
    cache: PlanCache, key: str, result, steps, extra_meta: Optional[dict] = None
) -> None:
    """Persist a completed (non-failed) inspector run.

    ``extra_meta`` merges additional JSON-able metadata into the entry —
    the delta-bind engine threads the parent-epoch link
    (``parent_key``/``epoch``/``delta_fingerprint``/``delta_mode``)
    through here so epoch chains are walkable from the artifacts alone.
    """
    if result.report is not None and result.report.failed:
        return
    entry = result_to_entry(result, steps)
    if extra_meta:
        entry.meta.update(extra_meta)
    if result.report is not None:
        result.report.cache = "stored"
    cache.put(key, entry)


__all__ = [
    "StageMemo",
    "entry_to_output",
    "entry_to_result",
    "lookup",
    "output_to_entry",
    "result_to_entry",
    "stage_function",
    "store",
]
