"""Dataset deltas: the unit of mutation between two epochs.

A :class:`DatasetDelta` describes how one epoch's
:class:`~repro.kernels.data.KernelData` becomes the next:

* ``removed`` — parent interaction-row indices whose edges disappear
  (an MD pair leaving the cutoff radius, a mesh edge collapsing);
* ``added_left``/``added_right`` — new interaction endpoints;
* ``moved_nodes``/``moved_arrays`` — nodes whose *payload* values change
  (positions updating between neighbor-list rebuilds) without touching
  the index structure.

:meth:`DatasetDelta.apply` defines the **canonical mutated dataset**:
surviving rows keep their relative order (an order-preserving excision)
and added rows append after them.  Every incremental update rule in
:mod:`repro.incremental.rules` argues bit-identity against a cold bind
of exactly this canonical form, so the canonicalization *is* the
correctness contract — tests and the benchmark compare ``tobytes``
against ``apply()``'s output bound from scratch.

:class:`EpochAux` carries the per-epoch derived state the rules need
(virtual occurrence keys and per-node first-touch keys, plus the parent
tile DAG for counter repair).  It is statelessly derivable from the
parent data in O(E) — caching it on the plan cache is an optimization
for chained rebinds, never a correctness dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ValidationError

#: first-touch key for a node no interaction touches: sorts after every
#: real occurrence key and ties break by node id (= ascending ids, the
#: same order cpack gives untouched nodes).
UNTOUCHED_KEY = np.int64(2) ** 62


def _as_index_array(value, name: str) -> np.ndarray:
    arr = np.asarray(value if value is not None else [], dtype=np.int64)
    if arr.ndim != 1:
        raise ValidationError(
            f"delta {name} must be a 1-d index array, got shape {arr.shape}",
            stage="delta",
        )
    return arr


@dataclass
class DatasetDelta:
    """One epoch's worth of dataset mutation (validated against a parent).

    ``removed`` row indices refer to the *parent* epoch's interaction
    rows; ``moved_arrays[name]`` holds the new payload values for
    ``moved_nodes`` (aligned element-wise) in the parent's node space.
    """

    added_left: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    added_right: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    removed: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    moved_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    moved_arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.added_left = _as_index_array(self.added_left, "added_left")
        self.added_right = _as_index_array(self.added_right, "added_right")
        removed = _as_index_array(self.removed, "removed")
        self.removed = np.unique(removed)  # sorted, duplicate-free
        if len(self.removed) != len(removed):
            raise ValidationError(
                "delta removed rows contain duplicates", stage="delta"
            )
        self.moved_nodes = _as_index_array(self.moved_nodes, "moved_nodes")
        if len(np.unique(self.moved_nodes)) != len(self.moved_nodes):
            raise ValidationError(
                "delta moved_nodes contains duplicates", stage="delta"
            )
        self.moved_arrays = {
            name: np.asarray(values, dtype=np.float64)
            for name, values in (self.moved_arrays or {}).items()
        }

    # -- shape -----------------------------------------------------------------

    @property
    def num_added(self) -> int:
        return len(self.added_left)

    @property
    def num_removed(self) -> int:
        return len(self.removed)

    @property
    def num_moved(self) -> int:
        return len(self.moved_nodes)

    @property
    def is_empty(self) -> bool:
        return not (self.num_added or self.num_removed or self.num_moved)

    @property
    def mutates_edges(self) -> bool:
        return bool(self.num_added or self.num_removed)

    # -- validation ------------------------------------------------------------

    def validate(self, data) -> "DatasetDelta":
        """Raise a typed :class:`~repro.errors.ValidationError` unless
        this delta is well-formed against ``data`` (the parent epoch)."""
        if len(self.added_left) != len(self.added_right):
            raise ValidationError(
                f"added endpoint arrays must align: "
                f"{len(self.added_left)} vs {len(self.added_right)}",
                stage="delta",
            )
        for name, endpoints in (
            ("added_left", self.added_left),
            ("added_right", self.added_right),
        ):
            if len(endpoints) and (
                endpoints.min() < 0 or endpoints.max() >= data.num_nodes
            ):
                raise ValidationError(
                    f"delta {name} references nodes outside "
                    f"[0, {data.num_nodes})",
                    stage="delta",
                )
        if len(self.removed) and (
            self.removed[0] < 0 or self.removed[-1] >= data.num_inter
        ):
            raise ValidationError(
                f"delta removes rows outside [0, {data.num_inter})",
                stage="delta",
            )
        if len(self.moved_nodes) and (
            self.moved_nodes.min() < 0
            or self.moved_nodes.max() >= data.num_nodes
        ):
            raise ValidationError(
                f"delta moves nodes outside [0, {data.num_nodes})",
                stage="delta",
            )
        for name, values in self.moved_arrays.items():
            if name not in data.arrays:
                raise ValidationError(
                    f"delta moves unknown payload array {name!r}",
                    stage="delta",
                    hint=f"kernel arrays: {sorted(data.arrays)}",
                )
            if len(values) != len(self.moved_nodes):
                raise ValidationError(
                    f"moved_arrays[{name!r}] has {len(values)} values for "
                    f"{len(self.moved_nodes)} moved nodes",
                    stage="delta",
                )
        if self.num_moved and not self.moved_arrays:
            raise ValidationError(
                "delta names moved nodes but carries no payload updates",
                stage="delta",
                hint="populate moved_arrays with the new values",
            )
        return self

    # -- drift -----------------------------------------------------------------

    def edge_drift(self, data) -> float:
        if data.num_inter == 0:
            return 1.0 if self.mutates_edges else 0.0
        return (self.num_added + self.num_removed) / data.num_inter

    def node_drift(self, data) -> float:
        if data.num_nodes == 0:
            return 0.0
        return self.num_moved / data.num_nodes

    def drift(self, data) -> float:
        """The drift metric the per-step thresholds gate on: the worse of
        edge churn (relative to the parent edge count) and node payload
        churn (relative to the node count)."""
        return max(self.edge_drift(data), self.node_drift(data))

    # -- canonical application -------------------------------------------------

    def keep_mask(self, num_inter: int) -> np.ndarray:
        """Boolean mask over the parent rows that survive this delta."""
        keep = np.ones(num_inter, dtype=bool)
        keep[self.removed] = False
        return keep

    def compaction_map(self, num_inter: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(keep_rows, old_to_new)``: surviving parent row ids in order,
        and the parent-row -> child-row index map (-1 for removed rows).
        Surviving rows compact order-preservingly, so relative order in
        the parent is relative order in the child."""
        keep = self.keep_mask(num_inter)
        keep_rows = np.flatnonzero(keep)
        old_to_new = np.full(num_inter, -1, dtype=np.int64)
        old_to_new[keep_rows] = np.arange(len(keep_rows), dtype=np.int64)
        return keep_rows, old_to_new

    def apply(self, data):
        """The canonical mutated dataset: surviving rows first (parent
        order preserved), added rows appended, payload moves applied."""
        from repro.kernels.data import KernelData

        keep = self.keep_mask(data.num_inter)
        arrays = {name: arr.copy() for name, arr in data.arrays.items()}
        for name, values in self.moved_arrays.items():
            arrays[name][self.moved_nodes] = values
        return KernelData(
            kernel_name=data.kernel_name,
            dataset_name=data.dataset_name,
            num_nodes=data.num_nodes,
            left=np.concatenate([data.left[keep], self.added_left]),
            right=np.concatenate([data.right[keep], self.added_right]),
            arrays=arrays,
        )

    # -- identity --------------------------------------------------------------

    def fingerprint(self) -> str:
        """Content digest of the mutation itself (keyed into the child
        cache entry's parent-epoch link)."""
        from repro.plancache.fingerprint import _update

        import hashlib

        h = hashlib.sha256()
        _update(
            h,
            "dataset-delta",
            self.added_left,
            self.added_right,
            self.removed,
            self.moved_nodes,
        )
        for name in sorted(self.moved_arrays):
            _update(h, name, self.moved_arrays[name])
        return h.hexdigest()

    def describe(self) -> str:
        return (
            f"delta(+{self.num_added} edges, -{self.num_removed} edges, "
            f"~{self.num_moved} nodes)"
        )


# ---------------------------------------------------------------------------
# Epoch-derived auxiliary state.


@dataclass
class EpochAux:
    """Derived per-epoch state the incremental rules consume.

    ``row_key[j]`` is a strictly increasing virtual key per interaction
    row; a row keeps its key across epochs (survivors) and appended rows
    get fresh larger keys, so relative key order *is* relative stream
    order across the whole epoch chain.  ``first_key[n]`` is the
    occurrence key (``2*row_key + {0: left, 1: right}``) of node ``n``'s
    first appearance in the interleaved access stream — exactly the
    quantity cpack orders nodes by — or :data:`UNTOUCHED_KEY`.
    """

    row_key: np.ndarray
    first_key: np.ndarray

    @classmethod
    def from_data(cls, data, counter: Optional[dict] = None) -> "EpochAux":
        """O(E) stateless derivation from one epoch's index arrays (no
        sort: one ``minimum.at`` over the interleaved occurrence keys)."""
        num_inter = data.num_inter
        row_key = np.arange(num_inter, dtype=np.int64)
        first_key = np.full(data.num_nodes, UNTOUCHED_KEY, dtype=np.int64)
        np.minimum.at(first_key, data.left, 2 * row_key)
        np.minimum.at(first_key, data.right, 2 * row_key + 1)
        if counter is not None:
            counter["touches"] = counter.get("touches", 0) + (
                2 * num_inter + data.num_nodes
            )
        return cls(row_key=row_key, first_key=first_key)

    def advanced(
        self,
        delta: DatasetDelta,
        parent_data,
        child_data,
        counter: Optional[dict] = None,
        keep_rows: Optional[np.ndarray] = None,
    ) -> Tuple["EpochAux", np.ndarray]:
        """The child epoch's aux plus the affected-node id array.

        Candidate nodes are those incident to a removed or an added row —
        the only nodes whose first-touch key can change.  Their keys are
        recomputed with one masked ``minimum.at`` over the child stream;
        every other node keeps its parent key verbatim (survivor rows
        keep their virtual keys, so unaffected first-touch keys are
        unchanged by construction).  The returned affected set is the
        candidates whose key actually *changed* — typically far smaller
        (a removed row only moves the first touch of nodes it was first
        for), and it is this set that bounds the downstream merge work.
        """
        if keep_rows is None:
            keep_rows, _ = delta.compaction_map(parent_data.num_inter)
        base = int(self.row_key[-1]) + 1 if len(self.row_key) else 0
        row_key = np.concatenate(
            [
                self.row_key[keep_rows],
                base + np.arange(delta.num_added, dtype=np.int64),
            ]
        )
        affected = np.unique(
            np.concatenate(
                [
                    parent_data.left[delta.removed],
                    parent_data.right[delta.removed],
                    delta.added_left,
                    delta.added_right,
                ]
            )
        )
        first_key = self.first_key.copy()
        first_key[affected] = UNTOUCHED_KEY
        affected_mask = np.zeros(parent_data.num_nodes, dtype=bool)
        affected_mask[affected] = True
        left_hits = affected_mask[child_data.left]
        right_hits = affected_mask[child_data.right]
        np.minimum.at(
            first_key, child_data.left[left_hits], 2 * row_key[left_hits]
        )
        np.minimum.at(
            first_key,
            child_data.right[right_hits],
            2 * row_key[right_hits] + 1,
        )
        changed = affected[first_key[affected] != self.first_key[affected]]
        if counter is not None:
            # Honest accounting: the masks scan the full child stream.
            counter["touches"] = counter.get("touches", 0) + (
                2 * child_data.num_inter
                + 3 * len(affected)
                + int(left_hits.sum())
                + int(right_hits.sum())
            )
        return (
            EpochAux(row_key=row_key, first_key=first_key),
            changed,
        )


__all__ = ["DatasetDelta", "EpochAux", "UNTOUCHED_KEY"]
