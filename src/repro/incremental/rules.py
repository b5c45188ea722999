"""Per-step incremental update rules (and when they refuse).

Each rule patches one inspector stage's realized reordering from the
parent epoch's cached arrays plus the delta, producing **bit-identical**
output to running that stage cold on the canonical mutated dataset.  The
legality argument every patch leans on is order preservation: the
canonical child keeps surviving rows in parent relative order, so a
stage whose output is a stable sort/grouping over per-row keys only has
to re-place the rows whose *keys* changed — everything else keeps its
parent relative order, which is exactly the cold stable sort's order
among unchanged keys.

A step declares its rule as its ``delta`` (a :class:`DeltaRule`, next to
the rest of its definition in :mod:`repro.runtime.steps`); a step with
no ``delta`` is never patched.  Whether a stage is patchable at all is
driven by its declared :class:`~repro.transforms.base.TransformTraits`
read set: the delta engine tracks incremental knowledge for
``index_values`` (the affected node set), ``iteration_order`` (the
survivor compaction map), and ``dependences``/``seed_partition``/
``tiling`` (recomputed exactly in O(E) scatter passes) — together
:data:`TRACKED_READS`.  A step reading anything else — ``coords``
(space-filling curves), or whose output is a global graph traversal no
local key model covers (GPart's partitioner, RCM's BFS) — carries a
zero drift threshold and no patch: any structural drift falls back to a
full re-bind.  Falling back is never an error; it is the counted
degradation path the acceptance criteria require.

Rules raise :class:`UnsupportedDelta` when a precondition fails at
patch time (composite-key overflow, an unsorted base order); the engine
converts that into the same counted full-re-bind fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.transforms.base import ReorderingFunction
from repro.transforms.sorting import stable_argsort

#: Largest composite sort key the int64 merge may build.
_KEY_LIMIT = np.int64(2) ** 62

#: The traits resources the engine can answer incrementally: a step whose
#: declared read set exceeds them is never patched, whatever its rule.
TRACKED_READS = frozenset(
    {"index_values", "iteration_order", "dependences", "seed_partition", "tiling"}
)


class UnsupportedDelta(ReproError):
    """A patch precondition failed; the engine must fall back."""


@dataclass(frozen=True)
class DeltaRule:
    """How one step behaves under a delta-bind (a step's ``delta``).

    ``max_drift`` is the per-step drift threshold past which the engine
    falls back to a full re-bind; ``patch`` (when present) applies the
    incremental update as ``patch(ctx, state, step, index)``.  The two
    positional preconditions: ``first_stage_only`` — the patch reads the
    raw child access stream, which only stage 0 sees; ``merges_rows`` —
    a stable-key merge over the canonical child row order, which no
    earlier merge may have permuted.
    """

    max_drift: float
    patch: Optional[Callable] = None
    first_stage_only: bool = False
    merges_rows: bool = False


# ---------------------------------------------------------------------------
# First-touch packing from the epoch aux (no sort over the stream).


def patch_first_touch(ctx, state, step, index) -> None:
    """CPACK at stage 0 from first-touch keys.

    Cold cpack numbers touched nodes by first appearance in the
    interleaved ``left[0], right[0], left[1], ...`` stream, untouched
    nodes after them in ascending id order.  ``EpochAux.first_key``
    orders nodes by exactly that stream position (survivor rows keep
    strictly increasing virtual keys, so key order == stream order), and
    untouched nodes share the sentinel — one stable argsort over the
    *node* space reproduces the cold order without touching the edge
    stream beyond the O(E) masked key refresh the engine already paid.
    Occurrence keys stay below twice the chain's row count, so the sort
    is the same bounded radix the cold inspectors use (the sentinel is
    clamped to the first key past them).
    """
    aux = ctx.child_aux
    upper = 2 * (int(aux.row_key[-1]) + 1) if len(aux.row_key) else 0
    order = stable_argsort(
        np.minimum(aux.first_key, upper), upper + 1, "first-touch keys"
    )
    sigma_arr = np.empty(len(order), dtype=np.int64)
    sigma_arr[order] = np.arange(len(order), dtype=np.int64)
    state.charge(step.name, 2 * len(order))
    state.register(step.symbol_prefix, sigma_arr)
    # trusted: sigma_arr is a scatter of arange (a permutation by
    # construction) and the engine numerically re-verifies the bind.
    state.apply_data_reordering(
        ReorderingFunction(f"{step.symbol_prefix}{index}", sigma_arr),
        step.name,
        trusted=True,
    )


# ---------------------------------------------------------------------------
# The stable-key merge: lexGroup / bucket / lexSort.


def _parent_stage_mapped(ctx, step, index) -> np.ndarray:
    """``old_to_new`` of parent rows, in the order this stage emitted them.

    One fused scatter: ``delta_parent[old] = emitted position``, so
    scattering ``old_to_new`` through it lands each parent row's child id
    at its emission slot — equivalent to inverting ``delta_parent`` and
    gathering, without materializing the inverse.
    """
    from repro.plancache import memo
    name = f"{step.name}{index}"
    delta_parent = memo.stage_function(ctx.parent_entry, name)
    if delta_parent is None:
        raise UnsupportedDelta(
            f"parent entry lacks stage function {name!r}", stage=step.name
        )
    mapped = np.empty(len(delta_parent), dtype=np.int64)
    mapped[delta_parent] = ctx.old_to_new
    return mapped


def merge_key_limit(num_rows: int) -> int:
    """Keys must stay below this for the ``key * (E+1) + row`` composite."""
    return int(_KEY_LIMIT // (num_rows + 1))


def _merge_rows(ctx, state, step, index, row_keys, affected_rows_mask):
    """Merge changed rows into the parent's stable order by ``row_keys``.

    ``row_keys[j]`` must be the stage's (integer) sort key for child row
    ``j`` in the canonical pre-stage row order, and the cold stage must
    be a stable argsort over those keys.  Surviving rows with unchanged
    keys keep their parent relative order (order preservation), which is
    already sorted by ``(key, row)``; changed/appended rows are placed
    by binary search on the composite ``key * (E+1) + row`` — an exact
    merge, so the result equals the cold stable argsort bit for bit.
    """
    num_rows = len(row_keys)
    if len(row_keys) and int(row_keys.max()) >= merge_key_limit(num_rows):
        raise UnsupportedDelta(
            "composite merge key would overflow int64", stage=step.name
        )
    mapped = _parent_stage_mapped(ctx, step, index)
    surviving = mapped[mapped >= 0]
    base = surviving[~affected_rows_mask[surviving]]
    rows = np.arange(num_rows, dtype=np.int64)
    composite = row_keys * np.int64(num_rows + 1) + rows
    base_comp = composite[base]
    # Strict-monotone check without np.diff's full-size int64 temp.
    if len(base_comp) > 1 and not bool(np.all(base_comp[:-1] < base_comp[1:])):
        # Order preservation failed — an assumption broke upstream; the
        # engine turns this into a counted full re-bind.
        raise UnsupportedDelta(
            "surviving rows are no longer key-sorted; cannot merge",
            stage=step.name,
        )
    insert = np.flatnonzero(affected_rows_mask)
    insert = insert[np.argsort(composite[insert])]
    positions = np.searchsorted(base_comp, composite[insert], side="left")
    merged = np.insert(base, positions, insert)
    delta_arr = np.empty(num_rows, dtype=np.int64)
    delta_arr[merged] = rows
    state.charge(step.name, 2 * num_rows + 2 * len(insert))
    state.register(step.name, delta_arr)
    # trusted: delta_arr scatters arange over a merge of disjoint row
    # sets, a permutation by construction; the engine's mandatory
    # numeric verification backstops it.  ``merged`` *is* the inverse
    # (merged[new] = old), so hand it over instead of re-deriving it.
    reordering = ReorderingFunction(
        f"delta_{step.name}", delta_arr, inverse=merged
    )
    state.apply_iteration_reordering(
        state.data.interaction_loop_position(),
        reordering,
        step.name,
        trusted=True,
    )


def _affected_rows(ctx, state, both_endpoints: bool) -> np.ndarray:
    """Appended rows plus survivors over first-touch-affected nodes.

    A row's key reads the *current* (post-data-reordering) numbering of
    its endpoints.  Comparing rank *values* against the parent would
    mark nearly every row (removing one early first touch shifts every
    later node's cpack rank); what the merge actually needs is relative
    *order*: among nodes whose first-touch key did not change, the
    patched cpack assigns ranks in the same relative order as the
    parent's, so rows over those nodes keep their parent sorted order.
    Only rows touching a first-touch-affected node — plus all appended
    rows — need re-placing.  If a later stage's key map breaks this
    (e.g. bucket boundaries shifting under rank shifts), the strict
    monotonicity check in :func:`_merge_rows` catches it and the engine
    falls back."""
    changed_nodes = np.zeros(state.data.num_nodes, dtype=bool)
    changed_nodes[ctx.affected_nodes] = True
    mask = changed_nodes[ctx.child_data.left]
    if both_endpoints:
        mask = mask | changed_nodes[ctx.child_data.right]
    mask[len(ctx.keep_rows):] = True
    state.charge("delta_scan", len(mask))
    return mask


def patch_merge(ctx, state, step, index) -> None:
    """Re-place the changed rows of a stable row sort.

    The step supplies its sort key: ``step.merge_key(data)`` returns the
    per-row keys over the current index arrays and whether both
    endpoints feed them (raising :class:`UnsupportedDelta` when the key
    cannot be built)."""
    keys, both_endpoints = step.merge_key(state.data)
    _merge_rows(
        ctx, state, step, index, keys, _affected_rows(ctx, state, both_endpoints)
    )


# ---------------------------------------------------------------------------
# Tiling / packing: exact O(E) scatter recompute, checked by the same
# tiling guard as a cold stage and then by the mandatory numeric verifier.


def patch_recompute(ctx, state, step, index) -> None:
    """Re-run the stage's own inspector (already O(E) scatter passes).

    A tiling is derived state, so recomputing it from the patched
    reorderings is the patch.  Nothing is skipped: the composed
    inspector's stage loop runs the bind-time tiling guard after this
    stage exactly as after a cold one, and the engine re-verifies the
    whole bind numerically."""
    step.run(state)


def plan_delta_eligibility(steps, drift: float) -> Tuple[bool, str]:
    """Can every stage of ``steps`` take this delta incrementally?

    Returns ``(ok, reason)`` — ``reason`` names the first refusing
    stage.  The positional preconditions are each rule's
    ``first_stage_only`` and ``merges_rows``."""
    merged_rows = False
    for index, step in enumerate(steps):
        rule = step.delta
        if rule is None:
            return False, f"stage {index} ({step.name}): no delta rule"
        if drift > rule.max_drift:
            return False, (
                f"stage {index} ({step.name}): drift {drift:.4f} exceeds "
                f"threshold {rule.max_drift}"
            )
        if drift > 0 and (
            rule.patch is None or not set(step.traits.reads) <= TRACKED_READS
        ):
            return False, (
                f"stage {index} ({step.name}): traits read set "
                f"{tuple(step.traits.reads)} is not incrementally tracked"
            )
        if rule.first_stage_only and index != 0:
            return False, (
                f"stage {index} ({step.name}): patch requires the raw access "
                "stream (stage 0 only)"
            )
        if rule.merges_rows:
            if merged_rows:
                return False, (
                    f"stage {index} ({step.name}): a prior interaction "
                    "reordering broke canonical row order"
                )
            merged_rows = True
    return True, ""


__all__ = [
    "DeltaRule",
    "TRACKED_READS",
    "UnsupportedDelta",
    "patch_first_touch",
    "patch_merge",
    "patch_recompute",
    "plan_delta_eligibility",
]
