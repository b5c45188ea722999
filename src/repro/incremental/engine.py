"""The delta-bind engine: patch a cached bind across a dataset epoch.

:func:`delta_bind` is the incremental counterpart of
:meth:`~repro.runtime.plan.CompositionPlan.bind`: given the *parent*
epoch's dataset, its cached bind, and a
:class:`~repro.incremental.delta.DatasetDelta`, it runs the plan's
stages against the canonical mutated dataset through the composed
inspector's one stage loop
(:meth:`~repro.runtime.inspector.ComposedInspector.run_stages`), with
each stage's incremental patch (its ``delta`` rule,
:mod:`repro.incremental.rules`) as the stage body in place of the cold
inspector.  A patched stage is therefore recorded, typed on a crash and
tiling-guarded exactly like a cold one.  The engine owns what is left:

1. eligibility and the epoch aux (first-touch keys advanced across the
   delta) the patches read;
2. the whole bind is re-verified against the runtime numeric verifier —
   **mandatory**, not only-when-degraded as on the cold path;
3. any refusal — drift past a per-step threshold, an unpatchable stage,
   a missing parent entry, a typed error from a patched stage, a
   verifier mismatch — degrades to a full re-bind, counted in
   ``cache.stats`` (``delta_patched`` / ``delta_fallbacks`` /
   ``delta_verify_failures``) so the degradation rate is observable,
   never silent.

Both outcomes store the child bind under its own content fingerprint
with a **parent-epoch link** in the entry metadata (``parent_key``,
``epoch``, ``delta_fingerprint``, ``delta_mode``), making the chain
F0 -> F1 -> ... -> Fn walkable and GC-able as a group (see
:meth:`~repro.plancache.store.DiskStore.chain_groups`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import ReproError, ValidationError
from repro.incremental.delta import DatasetDelta, EpochAux
from repro.incremental.rules import UnsupportedDelta, plan_delta_eligibility


@dataclass
class DeltaContext:
    """Everything a stage patch may consult beyond the live state."""

    delta: DatasetDelta
    parent_data: object
    child_data: object
    parent_entry: object
    keep_rows: np.ndarray
    old_to_new: np.ndarray
    #: Nodes whose first-touch key changed under the delta (original
    #: node ids) — the only nodes whose *relative* order a patched data
    #: reordering may change.
    affected_nodes: np.ndarray
    #: The parent's epoch aux advanced across the delta.
    child_aux: EpochAux

    def patch(self, state, index: int, step) -> None:
        """A patched stage: the body the composed inspector's stage loop
        runs in place of ``step.run(state)``."""
        rule = step.delta
        if rule is None or rule.patch is None:
            raise UnsupportedDelta(
                f"no incremental patch for stage {index} ({step.name})",
                stage=step.name,
            )
        rule.patch(self, state, step, index)


# ---------------------------------------------------------------------------
# TileDAG repair.


def repair_tile_dag(parent_dag, tiling, data):
    """The tile graph of a (patched) tiling: a fresh
    :func:`~repro.lowering.schedule.tile_dag` over the tiling's edges.

    ``parent_dag`` is accepted and unused: a graph patched from the
    parent's is by contract bit-identical to a fresh one, and deriving it
    needs the fresh edge set anyway.  No executor reads the result; the
    end-to-end harness times this call as a layer metric.
    """
    from repro.lowering.schedule import tile_dag
    from repro.runtime.inspector import dependence_edges
    from repro.transforms.parallel import tile_graph_edges

    src, dst = tile_graph_edges(tiling, dependence_edges(data))
    return tile_dag(int(tiling.num_tiles), src, dst)


# ---------------------------------------------------------------------------
# Epoch links.


def _parent_epoch(entry) -> int:
    if entry is None:
        return 0
    try:
        return int(entry.meta.get("epoch", 0))
    except (TypeError, ValueError):
        return 0


def _epoch_meta(parent_key, parent_epoch, delta, mode, drift) -> dict:
    return {
        "parent_key": parent_key,
        "epoch": parent_epoch + 1,
        "delta_fingerprint": delta.fingerprint(),
        "delta_mode": mode,
        "drift": float(drift),
    }


def link_epoch(cache, child_key, epoch_meta: dict) -> bool:
    """Annotate an already-stored child entry with its parent link.

    Used on the fallback path, where ``plan.bind`` stored the entry
    without epoch metadata; re-putting rewrites the artifact with the
    link so fallback epochs still join the chain.  Returns whether the
    entry was found and annotated.
    """
    entry = cache.get(child_key)
    if entry is None:
        return False
    entry.meta.pop("tier", None)
    entry.meta.update(epoch_meta)
    cache.put(child_key, entry)
    return True


# ---------------------------------------------------------------------------
# Entry point.


def delta_bind(
    plan,
    parent_data,
    delta: DatasetDelta,
    *,
    cache,
    num_steps: int = 2,
    parent_key: Optional[str] = None,
    child_data=None,
):
    """Bind ``plan`` to ``delta.apply(parent_data)`` incrementally.

    Requires a :class:`~repro.plancache.PlanCache` — the parent epoch's
    realized arrays come out of it and the child's go back in (with the
    parent-epoch link).  Returns the
    :class:`~repro.runtime.inspector.InspectorResult`, bit-identical to
    ``plan.bind(delta.apply(parent_data))``, with a ``delta_info`` dict
    attached describing the path taken (``patched`` / ``fallback`` /
    ``hit``) — diagnostic only, not persisted with the entry.

    A patched stage that raises any :class:`~repro.errors.ReproError` —
    a refusing rule, the tiling guard, a crash the stage loop typed —
    degrades to the counted full re-bind, which then raises whatever a
    cold bind of the child raises.

    ``child_data``, when given, must be ``delta.apply(parent_data)`` —
    streaming callers already materialized the new epoch's dataset (the
    simulation evolved it), so re-deriving it here would double-charge
    the delta path.  Shape mismatches are rejected; content is the
    caller's contract, and a lie is still caught by the mandatory
    numeric re-verification (which compares against ``child_data``) and
    scoped to ``child_data``'s own cache key.
    """
    from repro.plancache import memo
    from repro.plancache.fingerprint import (
        bind_fingerprint,
        verification_fingerprint,
    )
    from repro.runtime.verify import verify_numeric_equivalence_memoized

    if cache is None:
        raise ValidationError(
            "delta_bind requires a plan cache",
            stage="delta",
            hint="pass cache=PlanCache(...); the parent epoch's realized "
            "arrays are the patch input",
        )
    delta.validate(parent_data)
    stats = cache.stats
    if child_data is None:
        child_data = delta.apply(parent_data)
    else:
        expected = int(delta.keep_mask(parent_data.num_inter).sum()) + len(
            delta.added_left
        )
        if (
            child_data.num_nodes != parent_data.num_nodes
            or child_data.num_inter != expected
        ):
            raise ValidationError(
                "child_data does not match delta.apply(parent_data)",
                stage="delta",
                hint=f"expected {parent_data.num_nodes} nodes / "
                f"{expected} interactions, got {child_data.num_nodes} / "
                f"{child_data.num_inter}",
            )
    if parent_key is None:
        # Streaming callers hold the previous epoch's child key; passing
        # it back skips re-hashing the parent dataset every epoch.
        parent_key = bind_fingerprint(plan, parent_data)
    child_key = bind_fingerprint(plan, child_data)
    drift = delta.drift(parent_data)

    def fallback(reason: str, parent_epoch: int):
        stats.delta_fallbacks += 1
        result = plan.bind(child_data, num_steps=num_steps, cache=cache)
        meta = _epoch_meta(parent_key, parent_epoch, delta, "fallback", drift)
        link_epoch(cache, child_key, meta)
        result.delta_info = {"mode": "fallback", "reason": reason, **meta}
        return result

    # A pure payload move shares the parent's structural fingerprint, and
    # a re-played epoch may already be cached: either way the bind is a
    # plain hit — the cached sigma re-applies to the live payload.
    entry = cache.get(child_key)
    if entry is not None:
        try:
            result = memo.entry_to_result(entry, child_data)
        except Exception:
            stats.corrupt += 1
            cache.discard(child_key)
        else:
            stats.record_hit(
                [step.name for step in plan.steps],
                entry.meta.get("tier", "memory"),
            )
            result.delta_info = {
                "mode": "hit",
                "drift": float(drift),
                "epoch": _parent_epoch(entry),
            }
            return result

    parent_entry = cache.get(parent_key)
    parent_epoch = _parent_epoch(parent_entry)
    if plan.on_stage_failure != "raise":
        return fallback(
            "permissive failure policies may degrade stages; a degraded "
            "parent bind is not patchable",
            parent_epoch,
        )
    ok, reason = plan_delta_eligibility(plan.steps, drift)
    if not ok:
        return fallback(reason, parent_epoch)
    if parent_entry is None:
        return fallback("parent bind is not cached", parent_epoch)

    # Deriving the parent's aux (when it is not cached) and advancing it
    # are the patch's own work, charged together before stage 0.
    aux_counter: Dict[str, int] = {}
    parent_aux = cache.get_aux(parent_key)
    if parent_aux is None:
        parent_aux = EpochAux.from_data(parent_data, counter=aux_counter)
        # Store it back: later deltas off the same parent (retries, a
        # replayed stream) should not recompute the first-touch keys.
        cache.put_aux(parent_key, parent_aux)

    keep_rows, old_to_new = delta.compaction_map(parent_data.num_inter)
    try:
        child_aux, affected = parent_aux.advanced(
            delta,
            parent_data,
            child_data,
            counter=aux_counter,
            keep_rows=keep_rows,
        )
        ctx = DeltaContext(
            delta=delta,
            parent_data=parent_data,
            child_data=child_data,
            parent_entry=parent_entry,
            keep_rows=keep_rows,
            old_to_new=old_to_new,
            affected_nodes=affected,
            child_aux=child_aux,
        )
        result = plan.build_inspector().run_stages(child_data, body=ctx.patch)
    except ReproError as exc:
        return fallback(f"{type(exc).__name__}: {exc}", parent_epoch)
    result.overhead = {
        "delta_aux": int(aux_counter.get("touches", 0)),
        **result.overhead,
    }
    result.report.plan_name = plan.name

    # Mandatory re-verification: a patched bind is never trusted on the
    # rules' legality arguments alone.
    memo_key = verification_fingerprint(plan, child_data, num_steps)
    try:
        verify_numeric_equivalence_memoized(
            child_data,
            result,
            num_steps=num_steps,
            memo_key=memo_key,
            stats=stats,
        )
    except AssertionError as exc:
        stats.delta_verify_failures += 1
        return fallback(f"patched bind failed verification: {exc}", parent_epoch)
    result.report.verified = True

    meta = _epoch_meta(parent_key, parent_epoch, delta, "patched", drift)
    memo.store(cache, child_key, result, plan.steps, extra_meta=meta)
    result.report.cache = "delta"  # store() labelled it "stored"
    cache.put_aux(child_key, child_aux)
    stats.delta_patched += 1
    result.delta_info = {"mode": "patched", **meta}
    return result


__all__ = ["DeltaContext", "delta_bind", "link_epoch", "repair_tile_dag"]
