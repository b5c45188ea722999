"""Shared vocabulary of the run-time reordering transformations.

* :class:`ReorderingFunction` — a permutation realized as an index array,
  the run-time incarnation of the paper's ``sigma``/``delta`` uninterpreted
  function symbols.  ``sigma[old] = new``.
* :class:`AccessMap` — a CSR mapping from loop iterations to the data
  locations they touch: the bound, concrete form of a data mapping
  ``M_{I->a}`` restricted to one loop.  Iteration-reordering inspectors
  (CPACK, lexGroup, bucket tiling) traverse access maps; sparse tiling
  inspectors traverse dependences instead (see :mod:`repro.transforms.fst`).
* Relation builders producing the compile-time ``T_{I->I'}`` specifications
  for the common shapes (per-loop permutation, tile insertion, in-tile
  permutation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.presburger.constraints import eq
from repro.presburger.relations import PresburgerRelation
from repro.presburger.sets import Conjunction
from repro.presburger.terms import AffineExpr, var
from repro.transforms.sorting import bounded_keys


# ---------------------------------------------------------------------------
# Declarative transform metadata (static-analysis side)

#: Resources a transform's inspector may read or write.  ``reads`` name
#: what the inspector traverses; ``writes`` name what the produced
#: reordering permutes.  The static analyzer (:mod:`repro.analysis`)
#: threads these through the composition to build its def/use graph.
#:
#: * ``"index_values"``    — the values of the index arrays (node numbering)
#: * ``"iteration_order"`` — the interaction loop's current iteration order
#: * ``"dependences"``     — the concrete cross-loop dependence edge sets
#: * ``"tiling"``          — a previously produced tiling function
#: * ``"coords"``          — externally supplied node coordinates
#: * ``"payload"``         — the node payload values themselves
#: * ``"node_space"``      — the data space (a data reordering ``sigma``)
#: * ``"inter_order"``     — the interaction loop order (a ``delta``)
#: * ``"seed_partition"``  — a seed partition for tile growth
#: * ``"schedule"``        — an executor-facing (parallel) schedule
RESOURCES = (
    "index_values",
    "iteration_order",
    "dependences",
    "tiling",
    "coords",
    "payload",
    "node_space",
    "inter_order",
    "seed_partition",
    "schedule",
)


@dataclass(frozen=True)
class TransformTraits:
    """Declarative dataflow metadata of one run-time reordering transform.

    ``reads`` / ``writes`` use the :data:`RESOURCES` vocabulary.
    ``order_sensitive`` records whether the produced reordering depends on
    the *incoming order* of the space it permutes (a stable grouping does;
    a full sort does not — up to tie-breaking).  ``symmetric_dependences``
    marks inspectors able to traverse one of two symmetric dependence edge
    sets (paper Section 6); ``inspects_dependences`` marks inspectors that
    discharge iteration-reordering legality by construction.  Each step
    declares its traits inline, next to its inspector
    (:mod:`repro.runtime.steps`).
    """

    kind: str  #: one of ``data`` / ``iteration`` / ``tiling``
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]
    order_sensitive: bool = True
    symmetric_dependences: bool = False
    inspects_dependences: bool = False

    def __post_init__(self):
        for resource in self.reads + self.writes:
            if resource not in RESOURCES:
                raise ValueError(
                    f"unknown resource {resource!r} in traits; "
                    f"choose from {RESOURCES}"
                )

    @property
    def is_data_reordering(self) -> bool:
        return "node_space" in self.writes


#: Default for transforms that declare nothing: assume they read and
#: write everything, so third-party steps still lint — conservatively,
#: producing no false "dead stage"/"fusable" diagnostics.
CONSERVATIVE_TRAITS = TransformTraits(
    kind="unknown",
    reads=RESOURCES,
    writes=("node_space", "inter_order", "tiling", "schedule"),
    order_sensitive=True,
    symmetric_dependences=False,
    inspects_dependences=False,
)


class ReorderingFunction:
    """A permutation of ``n`` slots stored as ``sigma[old] = new``.

    Wraps the index arrays the paper's inspectors generate (``sigma_cp``,
    ``delta_lg``, ...).  The inverse array (``sigma_cp_inv`` in the paper's
    Figure 10, which CPACK builds directly) is materialized lazily,
    unless the caller already holds it and passes it as ``inverse``.
    """

    __slots__ = ("name", "array", "_inverse")

    def __init__(
        self,
        name: str,
        array: np.ndarray,
        inverse: Optional[np.ndarray] = None,
    ):
        array = np.asarray(array, dtype=np.int64)
        if array.ndim != 1:
            raise ValueError("reordering function must be a 1-D index array")
        self.name = name
        self.array = array
        self._inverse = inverse

    def __len__(self) -> int:
        return len(self.array)

    def __call__(self, old: int) -> int:
        return int(self.array[old])

    def __eq__(self, other):
        return (
            isinstance(other, ReorderingFunction)
            and len(self.array) == len(other.array)
            and bool(np.all(self.array == other.array))
        )

    def __repr__(self):
        return f"ReorderingFunction({self.name!r}, n={len(self.array)})"

    def is_permutation(self) -> bool:
        """True when the array is a bijection on [0, n)."""
        return self.permutation_defects()[0] is None

    def permutation_defects(self, limit: int = 5):
        """Why the array fails to be a bijection on [0, n).

        Returns ``(kind, positions)`` — ``kind`` one of ``"out-of-range"``
        or ``"duplicate"`` with the first ``limit`` offending positions in
        the array — or ``(None, [])`` for a valid permutation.
        """
        n = len(self.array)
        outside = np.flatnonzero((self.array < 0) | (self.array >= n))
        if len(outside):
            return "out-of-range", outside[:limit].tolist()
        counts = np.bincount(self.array, minlength=n)
        dup_values = np.flatnonzero(counts > 1)
        if len(dup_values):
            positions = np.flatnonzero(np.isin(self.array, dup_values))
            return "duplicate", positions[:limit].tolist()
        return None, []

    def require_permutation(self, stage: Optional[str] = None) -> "ReorderingFunction":
        """The legality obligation for data reorderings (paper Section 4).

        Raises :class:`~repro.errors.ValidationError` naming the array and
        the first few offending positions instead of a bare assertion.
        """
        kind, positions = self.permutation_defects()
        if kind is not None:
            values = [int(self.array[p]) for p in positions]
            raise ValidationError(
                f"index array {self.name!r} (n={len(self.array)}) is not a "
                f"permutation: {kind} values {values} at",
                stage=stage,
                indices=positions,
                hint="every slot in [0, n) must appear exactly once; "
                "regenerate the reordering or run under "
                "on_stage_failure='skip' to degrade",
            )
        return self

    @property
    def inverse_array(self) -> np.ndarray:
        """``inv[new] = old`` (the paper's ``*_inv`` index arrays)."""
        if self._inverse is None:
            inv = np.empty_like(self.array)
            inv[self.array] = np.arange(len(self.array), dtype=np.int64)
            self._inverse = inv
        return self._inverse

    def inverse(self) -> "ReorderingFunction":
        return ReorderingFunction(f"{self.name}_inv", self.inverse_array)

    def compose(self, after: "ReorderingFunction") -> "ReorderingFunction":
        """``(after . self)[old] = after[self[old]]`` — run-time counterpart
        of composing ``R`` relations (``Ocp2(Ocp(m))`` in the paper)."""
        if len(after) != len(self):
            raise ValueError("composition requires equal lengths")
        return ReorderingFunction(
            f"{after.name}.{self.name}", after.array[self.array]
        )

    def apply_to_data(self, data: np.ndarray) -> np.ndarray:
        """Relocate ``data`` so element at ``old`` moves to ``sigma[old]``."""
        out = np.empty_like(data)
        out[self.array] = data
        return out

    def remap_values(self, values: np.ndarray) -> np.ndarray:
        """Rewrite an index array whose *values* point into the reordered
        space (the paper's index-array adjustment: ``left <- sigma[left]``)."""
        return self.array[np.asarray(values, dtype=np.int64)]

    @staticmethod
    def identity(name: str, n: int) -> "ReorderingFunction":
        return ReorderingFunction(name, np.arange(n, dtype=np.int64))


def identity_reordering(n: int, name: str = "id") -> ReorderingFunction:
    """Identity permutation of ``n`` slots."""
    return ReorderingFunction.identity(name, n)


def permutation_from_order(
    name: str, order: Sequence[int], n: Optional[int] = None
) -> ReorderingFunction:
    """Build ``sigma`` from a visit order (``order[new] = old``).

    Inspectors naturally produce visit orders (CPACK's ``sigma_cp_inv``);
    this inverts into the canonical ``sigma[old] = new`` form.  An order
    that is not a permutation of ``[0, n)`` — the wrong length, an entry
    outside the range, a repeated entry — raises
    :class:`~repro.errors.ValidationError` naming the position, never
    returns: one min / max and one check that every slot was written.
    """
    n = len(order) if n is None else n
    order = bounded_keys(order, n, "order")
    if len(order) != n:
        raise ValidationError(
            f"order has {len(order)} entries for {n} slots: it must "
            "mention every slot exactly once"
        )
    positions = np.arange(n, dtype=np.int64)
    sigma = np.full(n, -1, dtype=np.int64)
    sigma[order] = positions
    if n and sigma.min() < 0:
        # A slot nobody wrote means another was written twice; the
        # scatter kept the later position of the repeated entry.
        pos = int(np.flatnonzero(sigma[order] != positions)[0])
        later = int(sigma[order[pos]])
        raise ValidationError(
            f"order[{later}] = {int(order[pos])} repeats order[{pos}]",
            indices=[later],
        )
    return ReorderingFunction(name, sigma)


class AccessMap:
    """CSR map from loop iterations to touched data locations.

    ``locations[offsets[it]:offsets[it+1]]`` are the locations iteration
    ``it`` touches, in textual access order (e.g. ``left[j], right[j]`` for
    the moldyn j loop).  This is what a data-reordering or
    iteration-reordering inspector traverses.
    """

    __slots__ = ("offsets", "locations", "num_locations")

    def __init__(
        self,
        offsets: np.ndarray,
        locations: np.ndarray,
        num_locations: int,
    ):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.locations = np.asarray(locations, dtype=np.int64)
        self.num_locations = int(num_locations)
        if self.offsets.ndim != 1 or self.offsets[0] != 0:
            raise ValueError("offsets must be 1-D and start at 0")
        if self.offsets[-1] != len(self.locations):
            raise ValueError("offsets must end at len(locations)")

    @property
    def num_iterations(self) -> int:
        return len(self.offsets) - 1

    def row(self, iteration: int) -> np.ndarray:
        return self.locations[self.offsets[iteration] : self.offsets[iteration + 1]]

    def __iter__(self):
        for it in range(self.num_iterations):
            yield self.row(it)

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]], num_locations: int) -> "AccessMap":
        rows = [np.asarray(r, dtype=np.int64) for r in rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        if rows:
            offsets[1:] = np.cumsum([len(r) for r in rows])
        locations = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        return AccessMap(offsets, locations, num_locations)

    @staticmethod
    def from_columns(columns: Sequence[np.ndarray], num_locations: int) -> "AccessMap":
        """Build from per-access index arrays of equal length, interleaved —
        e.g. ``from_columns([left, right], num_nodes)`` makes iteration ``j``
        touch ``left[j], right[j]`` (fixed row width)."""
        columns = [np.asarray(c, dtype=np.int64) for c in columns]
        if not columns:
            raise ValueError("need at least one column")
        n = len(columns[0])
        if any(len(c) != n for c in columns):
            raise ValueError("columns must have equal length")
        locations = np.empty(n * len(columns), dtype=np.int64)
        for idx, col in enumerate(columns):
            locations[idx :: len(columns)] = col
        offsets = np.arange(n + 1, dtype=np.int64) * len(columns)
        return AccessMap(offsets, locations, num_locations)

    # -- rewriting under reorderings ------------------------------------------------

    def with_data_reordered(self, sigma: ReorderingFunction) -> "AccessMap":
        """Locations renumbered by ``sigma`` (data reordering applied)."""
        return AccessMap(
            self.offsets, sigma.remap_values(self.locations), self.num_locations
        )

    def with_iterations_reordered(self, delta: ReorderingFunction) -> "AccessMap":
        """Rows permuted so row ``delta[old]`` is old row ``old``."""
        if len(delta) != self.num_iterations:
            raise ValueError("delta length must equal number of iterations")
        order = delta.inverse_array  # order[new] = old
        rows = [self.row(old) for old in order]
        return AccessMap.from_rows(rows, self.num_locations)

    # -- traversal orders --------------------------------------------------------------

    def flat_locations(self) -> np.ndarray:
        """All locations in traversal order (what CPACK walks)."""
        return self.locations


# -- compile-time relation builders ------------------------------------------------------


def permute_loops_relation(
    num_loops: int, loop_funcs: Dict[int, str]
) -> PresburgerRelation:
    """``T`` permuting each loop's iterations by its own UFS.

    ``loop_funcs`` maps loop position to the reordering function name; loops
    not mentioned keep their order.  Example (paper Section 5.2)::

        permute_loops_relation(3, {0: "cp", 1: "lg", 2: "cp"})
        == {[s,l,x,q] -> [s,l,cp(x),q] : l=0} union
           {[s,l,x,q] -> [s,l,lg(x),q] : l=1} union
           {[s,l,x,q] -> [s,l,cp(x),q] : l=2}
    """
    in_vars = ("s", "l", "x", "q")
    out_vars = ("s'", "l'", "x'", "q'")
    conjs = []
    for lpos in range(num_loops):
        fn = loop_funcs.get(lpos)
        new_x = AffineExpr.ufs(fn, var("x")) if fn else var("x")
        conjs.append(
            Conjunction(
                [
                    eq(var("l"), lpos),
                    eq(var("s'"), var("s")),
                    eq(var("l'"), var("l")),
                    eq(var("x'"), new_x),
                    eq(var("q'"), var("q")),
                ]
            )
        )
    return PresburgerRelation(in_vars, out_vars, conjs)


def tile_insert_relation(theta_name: str = "theta") -> PresburgerRelation:
    """Sparse tiling's ``T``: insert a tile dimension after the time step.

    ``{[s,l,x,q] -> [s,t,l,x,q] : t = theta(l, x)}`` — the paper's
    ``T_{I2->I3}`` with the tiling function over (loop, iteration).
    """
    in_vars = ("s", "l", "x", "q")
    out_vars = ("s'", "t'", "l'", "x'", "q'")
    conj = Conjunction(
        [
            eq(var("s'"), var("s")),
            eq(var("t'"), AffineExpr.ufs(theta_name, var("l"), var("x"))),
            eq(var("l'"), var("l")),
            eq(var("x'"), var("x")),
            eq(var("q'"), var("q")),
        ]
    )
    return PresburgerRelation(in_vars, out_vars, [conj])


def tile_permute_relation(
    num_loops: int, loop_funcs: Dict[int, str]
) -> PresburgerRelation:
    """Like :func:`permute_loops_relation` on a tiled (5-D) space.

    The paper's ``T_{I3->I4}`` (tilePack): permute iterations within their
    loops while keeping the tile coordinate fixed.
    """
    in_vars = ("s", "t", "l", "x", "q")
    out_vars = ("s'", "t'", "l'", "x'", "q'")
    conjs = []
    for lpos in range(num_loops):
        fn = loop_funcs.get(lpos)
        new_x = AffineExpr.ufs(fn, var("x")) if fn else var("x")
        conjs.append(
            Conjunction(
                [
                    eq(var("l"), lpos),
                    eq(var("s'"), var("s")),
                    eq(var("t'"), var("t")),
                    eq(var("l'"), var("l")),
                    eq(var("x'"), new_x),
                    eq(var("q'"), var("q")),
                ]
            )
        )
    return PresburgerRelation(in_vars, out_vars, conjs)
