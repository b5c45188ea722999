"""Memoize composed-inspector runs end to end.

Serialization contract
----------------------

An :class:`~repro.runtime.inspector.InspectorResult` is almost entirely
index arrays — exactly what a ``.npz`` stores natively:

* the transformed ``left``/``right`` index arrays;
* ``sigma`` (the total node data reordering) and the per-loop ``delta``
  iteration reorderings;
* the tiling function (one array per loop + tile count), when present;
* every per-stage reordering function under its symbolic UFS name
  (``cp0``, ``lg1``, ``theta2``, ...) — what the runtime verifier binds;
* the :class:`~repro.runtime.report.PipelineReport` (JSON metadata),
  including per-stage statuses and the verifier verdict.

The node *payload* is deliberately **not** stored: a hit re-applies the
cached ``sigma`` to the live payload (one vectorized gather per array),
so a cached plan binds correctly to any payload values over the same
index arrays — and the rehydrated executor state is bit-identical to
what the cold inspectors would have produced.

Safety: rehydration re-checks shape agreement against the live dataset
and re-validates ``sigma`` as a permutation; any inconsistency demotes
the entry to a *safe miss* (inspectors re-run), never a wrong reuse.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.kernels.data import KernelData
from repro.plancache.store import CacheEntry, PlanCache
from repro.runtime.report import PipelineReport
from repro.transforms.base import ReorderingFunction
from repro.transforms.fst import TilingFunction


def _stage_names(steps) -> List[str]:
    return [step.name for step in steps]


# ---------------------------------------------------------------------------
# InspectorResult -> CacheEntry


def result_to_entry(result, steps) -> CacheEntry:
    """Pack a finished inspector run into a storable entry."""
    arrays: Dict[str, np.ndarray] = {
        "left": result.transformed.left,
        "right": result.transformed.right,
        "sigma": result.sigma_nodes.array,
    }
    for pos, delta in result.delta_loops.items():
        arrays[f"delta__{pos}"] = delta.array

    if result.tiling is not None:
        for loop, tiles in enumerate(result.tiling.tiles):
            arrays[f"tile__{loop}"] = tiles

    stage_function_specs: Dict[str, object] = {}
    for name, value in result.stage_functions.items():
        if isinstance(value, np.ndarray):
            stage_function_specs[name] = "array"
            arrays[f"sf__{name}"] = value
        else:  # a per-loop list (tiling-style UFS, e.g. theta2)
            stage_function_specs[name] = len(value)
            for loop, part in enumerate(value):
                arrays[f"sfl__{name}__{loop}"] = np.asarray(part)

    report = result.report
    meta = {
        "kernel_name": result.transformed.kernel_name,
        "dataset_name": result.transformed.dataset_name,
        "num_nodes": int(result.transformed.num_nodes),
        "num_inter": int(result.transformed.num_inter),
        "delta_positions": sorted(result.delta_loops),
        "num_tiles": (
            int(result.tiling.num_tiles) if result.tiling is not None else None
        ),
        "stage_functions": stage_function_specs,
        "overhead": {k: int(v) for k, v in result.overhead.items()},
        "data_moves": int(result.data_moves),
        "step_names": _stage_names(steps),
        "report": report.to_dict() if report is not None else None,
    }
    return CacheEntry(meta=meta, arrays=arrays)


# ---------------------------------------------------------------------------
# CacheEntry -> InspectorResult


def entry_to_result(entry: CacheEntry, data: KernelData):
    """Rehydrate a cached plan against the *live* dataset payload.

    Raises on any inconsistency (the caller treats that as a corrupt
    entry and falls back to a cold run).
    """
    from repro.runtime.executor import ExecutionPlan
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

    delta_loops = {
        int(pos): ReorderingFunction(
            f"delta{pos}", entry.arrays[f"delta__{pos}"]
        )
        for pos in meta["delta_positions"]
    }
    for pos, delta in delta_loops.items():
        if len(delta) != transformed.loop_sizes()[pos]:
            raise ValueError("cached delta length mismatch")

    tiling = None
    if meta["num_tiles"] is not None:
        tiles = [
            entry.arrays[f"tile__{loop}"].astype(np.int64, copy=True)
            for loop in range(len(transformed.loops))
        ]
        tiling = TilingFunction(tiles, int(meta["num_tiles"]))

    stage_functions: Dict[str, object] = {}
    for name, spec in meta["stage_functions"].items():
        if spec == "array":
            stage_functions[name] = entry.arrays[f"sf__{name}"]
        else:
            stage_functions[name] = [
                entry.arrays[f"sfl__{name}__{loop}"]
                for loop in range(int(spec))
            ]

    report = (
        PipelineReport.from_dict(meta["report"])
        if meta.get("report") is not None
        else None
    )
    if report is not None:
        report.cache = "hit"
        for stage in report.stages:
            stage.elapsed_s = 0.0  # nothing ran on this bind

    plan = (
        ExecutionPlan(schedule=tiling.schedule())
        if tiling is not None
        else ExecutionPlan.identity()
    )
    return InspectorResult(
        transformed=transformed,
        plan=plan,
        sigma_nodes=sigma,
        delta_loops=delta_loops,
        tiling=tiling,
        overhead=dict(meta["overhead"]),
        data_moves=int(meta["data_moves"]),
        stage_functions=stage_functions,
        report=report,
    )


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


__all__ = ["entry_to_result", "lookup", "result_to_entry", "store"]
