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

Whether a stage is patchable at all is driven by its declared
:class:`~repro.transforms.base.TransformTraits` read set: the delta
engine tracks incremental knowledge for ``index_values`` (the affected
node set), ``iteration_order`` (the survivor compaction map), and
``dependences``/``seed_partition``/``tiling`` (recomputed exactly in
O(E) scatter passes).  A step reading anything else — ``coords``
(space-filling curves), or whose output is a global graph traversal no
local key model covers (GPart's partitioner, RCM's BFS) — carries a
zero drift threshold: any structural drift falls back to a full
re-bind.  Falling back is never an error; it is the counted degradation
path the acceptance criteria require.

Rules raise :class:`UnsupportedDelta` when a precondition fails at
patch time (composite-key overflow, an unsorted base order); the engine
converts that into the same counted full-re-bind fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.transforms.base import ReorderingFunction
from repro.transforms.sorting import stable_argsort

#: Largest composite sort key the int64 merge may build.
_KEY_LIMIT = np.int64(2) ** 62


class UnsupportedDelta(ReproError):
    """A patch precondition failed; the engine must fall back."""


@dataclass(frozen=True)
class DeltaRule:
    """How one step behaves under a delta-bind.

    ``max_drift`` is the per-step drift threshold past which the engine
    falls back to a full re-bind; ``patch`` (when present) applies the
    incremental update; ``tracked_reads`` are the traits resources the
    engine can answer incrementally — a step whose declared read set
    exceeds them is never patched, whatever its threshold.
    """

    step_name: str
    max_drift: float
    tracked_reads: FrozenSet[str]
    patch: Optional[Callable] = None

    def supports(self, step) -> bool:
        return self.patch is not None and set(step.traits.reads) <= set(
            self.tracked_reads
        )


# ---------------------------------------------------------------------------
# cpack: first-touch order from the epoch aux (no sort over the stream).


def _patch_cpack(ctx, state, step, index) -> None:
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
    aux = ctx.require_child_aux()
    upper = 2 * (int(aux.row_key[-1]) + 1) if len(aux.row_key) else 0
    order = stable_argsort(
        np.minimum(aux.first_key, upper), upper + 1, "first-touch keys"
    )
    sigma_arr = np.empty(len(order), dtype=np.int64)
    sigma_arr[order] = np.arange(len(order), dtype=np.int64)
    state.charge(step.name, 2 * len(order))
    state.register("cp", sigma_arr)
    # trusted: sigma_arr is a scatter of arange (a permutation by
    # construction) and the engine numerically re-verifies the bind.
    state.apply_data_reordering(
        ReorderingFunction(f"cp{index}", sigma_arr), step.name, trusted=True
    )


# ---------------------------------------------------------------------------
# Stable-key merges: lexGroup / bucket / lexSort.


def _parent_stage_mapped(ctx, step, index) -> np.ndarray:
    """``old_to_new`` of parent rows, in the order this stage emitted them.

    One fused scatter: ``delta_parent[old] = emitted position``, so
    scattering ``old_to_new`` through it lands each parent row's child id
    at its emission slot — equivalent to inverting ``delta_parent`` and
    gathering, without materializing the inverse.
    """
    key = f"sf__{step.name}{index}"
    delta_parent = ctx.parent_entry.arrays.get(key)
    if delta_parent is None:
        raise UnsupportedDelta(
            f"parent entry lacks stage function {key!r}", stage=step.name
        )
    mapped = np.empty(len(delta_parent), dtype=np.int64)
    mapped[delta_parent] = ctx.old_to_new
    return mapped


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
    if len(row_keys) and int(row_keys.max()) >= int(
        _KEY_LIMIT // (num_rows + 1)
    ):
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
    # (merged[new] = old), so seed the cache instead of re-deriving it.
    reordering = ReorderingFunction(f"delta_{step.name}", delta_arr)
    reordering._inverse = merged
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


def _patch_lexgroup(ctx, state, step, index) -> None:
    keys = state.data.left.copy()
    _merge_rows(ctx, state, step, index, keys, _affected_rows(ctx, state, False))


def _patch_bucket(ctx, state, step, index) -> None:
    keys = state.data.left // np.int64(step.bucket_size)
    _merge_rows(ctx, state, step, index, keys, _affected_rows(ctx, state, False))


def _patch_lexsort(ctx, state, step, index) -> None:
    n = np.int64(state.data.num_nodes)
    if len(state.data.left) and n * n >= _KEY_LIMIT // (
        len(state.data.left) + 1
    ):
        raise UnsupportedDelta(
            "lexsort composite key would overflow int64", stage=step.name
        )
    keys = state.data.left * n + state.data.right
    _merge_rows(ctx, state, step, index, keys, _affected_rows(ctx, state, True))


# ---------------------------------------------------------------------------
# Tiling / packing: exact O(E) scatter recompute, validation deferred to
# the IRV006 DAG gate + the mandatory numeric verifier.


def _patch_recompute(ctx, state, step, index) -> None:
    """Re-run the stage's own inspector (already O(E) scatter passes);
    the delta-bind saving is the skipped per-edge tiling validation,
    which the engine replaces with the DAG repair + IRV006 + numeric
    verification gates."""
    step.run(state)


#: The rule registry, keyed by inspector step name.
DELTA_RULES: Dict[str, DeltaRule] = {
    rule.step_name: rule
    for rule in (
        DeltaRule(
            "cpack", 0.10,
            frozenset({"index_values", "iteration_order"}), _patch_cpack,
        ),
        DeltaRule(
            "lg", 0.10,
            frozenset({"index_values", "iteration_order"}), _patch_lexgroup,
        ),
        DeltaRule(
            "ls", 0.10,
            frozenset({"index_values", "iteration_order"}), _patch_lexsort,
        ),
        DeltaRule(
            "bt", 0.10,
            frozenset({"index_values", "iteration_order"}), _patch_bucket,
        ),
        DeltaRule(
            "fst", 0.05,
            frozenset(
                {"index_values", "iteration_order", "dependences",
                 "seed_partition"}
            ),
            _patch_recompute,
        ),
        DeltaRule(
            "tilepack", 0.05,
            frozenset({"tiling", "index_values", "iteration_order"}),
            _patch_recompute,
        ),
        # Global traversals: no local key model covers the partitioner /
        # BFS / curve outputs, so any structural drift means re-bind.
        DeltaRule("gpart", 0.0, frozenset()),
        DeltaRule("rcm", 0.0, frozenset()),
        DeltaRule("sfc", 0.0, frozenset()),
        DeltaRule("cb", 0.0, frozenset()),
    )
}


def plan_delta_eligibility(steps, drift: float) -> Tuple[bool, str]:
    """Can every stage of ``steps`` take this delta incrementally?

    Returns ``(ok, reason)`` — ``reason`` names the first refusing
    stage.  Positional preconditions: the cpack patch needs the raw
    child access stream (stage 0, before any row permutation), and the
    stable-key merges need the canonical child row order (no earlier
    interaction-loop reordering)."""
    seen_row_reorder = False
    for index, step in enumerate(steps):
        rule = DELTA_RULES.get(step.name)
        if rule is None:
            return False, f"stage {index} ({step.name}): no delta rule"
        if drift > rule.max_drift:
            return False, (
                f"stage {index} ({step.name}): drift {drift:.4f} exceeds "
                f"threshold {rule.max_drift}"
            )
        if drift > 0 and not rule.supports(step):
            return False, (
                f"stage {index} ({step.name}): traits read set "
                f"{tuple(step.traits.reads)} is not incrementally tracked"
            )
        if step.name == "cpack" and index != 0:
            return False, (
                f"stage {index} (cpack): patch requires the raw access "
                "stream (stage 0 only)"
            )
        if step.name in ("lg", "ls", "bt") and seen_row_reorder:
            return False, (
                f"stage {index} ({step.name}): a prior interaction "
                "reordering broke canonical row order"
            )
        if step.name in ("lg", "ls", "bt"):
            seen_row_reorder = True
    return True, ""


__all__ = [
    "DELTA_RULES",
    "DeltaRule",
    "UnsupportedDelta",
    "plan_delta_eligibility",
]
