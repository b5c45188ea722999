"""Program state threading: the compile-time composition algebra.

A :class:`ProgramState` holds the current unified iteration space ``I_k``,
the data mappings ``M_{I_k -> a_k}``, and the dependences ``D_{I_k -> I_k}``
of a kernel after ``k`` planned run-time reordering transformations.

* Applying a :class:`DataReordering` ``R_{a->a'}`` rewrites the data
  mappings of the affected arrays: ``M_{I->a'} = R . M_{I->a}``
  (paper Section 4: remapping never affects dependences, so any one-to-one
  remapping is legal).
* Applying an :class:`IterationReordering` ``T_{I->I'}`` rewrites
  everything:

  - ``I' = T(I)``
  - ``M_{I'->a} = M_{I->a} . T^-1``
  - ``D_{I'->I'} = T . D_{I->I} . T^-1``

The rewritten specifications are what the *next* planned inspector
traverses — the paper's key insight, and what makes compositions like
CPACK, lexGroup, CPACK, lexGroup (Section 5.3) expressible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.presburger.constraints import eq
from repro.presburger.relations import PresburgerRelation
from repro.presburger.sets import PresburgerSet
from repro.presburger.terms import AffineExpr, var
from repro.uniform.kernel import Kernel
from repro.uniform.iterspace import UnifiedSpace
from repro.uniform.mappings import (
    LOCATION_VAR,
    Dependence,
    build_data_mappings,
    build_dependences,
)


#: Canonical unified-tuple variable names by arity.  Four dimensions is the
#: starting space ``[s, l, x, q]``; sparse tiling inserts a tile dimension
#: to make five ``[s, t, l, x, q]``; further tilings extend similarly.
_CANONICAL_BY_ARITY = {
    4: ("s", "l", "x", "q"),
    5: ("s", "t", "l", "x", "q"),
    6: ("s", "t", "u", "l", "x", "q"),
}


def canonical_tuple_vars(arity: int, suffix: str = "") -> Tuple[str, ...]:
    """Readable variable names for a unified tuple of the given arity."""
    base = _CANONICAL_BY_ARITY.get(arity, tuple(f"c{i}" for i in range(arity)))
    return tuple(v + suffix for v in base)


def _canonize_set(pset: PresburgerSet) -> PresburgerSet:
    return pset.rename_tuple(canonical_tuple_vars(pset.arity))


def _canonize_mapping(rel: PresburgerRelation) -> PresburgerRelation:
    return rel.rename_tuples(canonical_tuple_vars(rel.in_arity), (LOCATION_VAR,))


def _canonize_dependence_relation(rel: PresburgerRelation) -> PresburgerRelation:
    return rel.rename_tuples(
        canonical_tuple_vars(rel.in_arity),
        canonical_tuple_vars(rel.out_arity, suffix="'"),
    )


@dataclass(frozen=True)
class DataReordering:
    """A run-time data reordering ``R_{a->a'}`` shared by several arrays.

    ``func_name`` names the (not yet known) reordering function; the
    relation is ``{[m] -> [m'] : m' = func(m)}``.  In moldyn the same
    reordering applies to ``x``, ``vx`` and ``fx`` because loop iterations
    touch the three arrays with identical subscripts.
    """

    func_name: str
    arrays: Tuple[str, ...]
    label: str = ""

    @property
    def relation(self) -> PresburgerRelation:
        constraint = eq(var("m'"), AffineExpr.ufs(self.func_name, var("m")))
        return PresburgerRelation.from_constraints(("m",), ("m'",), [constraint])

    def describe(self) -> str:
        name = self.label or self.func_name
        return f"R[{name}]: {{[m] -> [{self.func_name}(m)]}} on {', '.join(self.arrays)}"


@dataclass(frozen=True)
class IterationReordering:
    """A run-time iteration reordering ``T_{I->I'}``.

    ``relation`` maps current unified tuples to new ones; the new execution
    order is the lexicographic order of the image tuples.  Sparse tiling
    produces relations whose output arity exceeds the input arity (a tile
    dimension is inserted).
    """

    relation: PresburgerRelation
    label: str = ""
    #: Names of reordering/tiling UFS introduced by this transformation
    #: (e.g. ``("lg",)`` for lexGroup, ``("theta",)`` for sparse tiling).
    introduces: Tuple[str, ...] = ()
    #: True when the transformation's inspector traverses dependences (and
    #: thereby guarantees legality by construction), as sparse tiling does.
    inspects_dependences: bool = False

    def describe(self) -> str:
        name = self.label or ",".join(self.introduces) or "T"
        return f"T[{name}]: {self.relation!r}"


@dataclass
class ProgramState:
    """Iteration space + data mappings + dependences after k transformations."""

    kernel: Kernel
    iteration_space: PresburgerSet
    data_mappings: Dict[str, PresburgerRelation]
    dependences: List[Dependence]
    #: Applied transformations, oldest first.
    history: List[object] = field(default_factory=list)

    # -- construction -------------------------------------------------------------

    @staticmethod
    def initial(kernel: Kernel) -> "ProgramState":
        """``I_0``, ``M_{I0->a0}``, ``D_{I0->I0}`` straight from the IR."""
        space = UnifiedSpace(kernel)
        return ProgramState(
            kernel=kernel,
            iteration_space=space.iteration_space(),
            data_mappings=build_data_mappings(kernel),
            dependences=build_dependences(kernel),
            history=[],
        )

    # -- queries --------------------------------------------------------------------

    @property
    def tuple_arity(self) -> int:
        return self.iteration_space.arity

    def data_mapping(self, array: str) -> PresburgerRelation:
        return self.data_mappings[array]

    def non_reduction_dependences(self) -> List[Dependence]:
        return [d for d in self.dependences if not d.is_reduction]

    def uf_names(self) -> frozenset:
        out = set(self.iteration_space.uf_names())
        for m in self.data_mappings.values():
            out |= m.uf_names()
        for d in self.dependences:
            out |= d.relation.uf_names()
        return frozenset(out)

    # -- transformation application ----------------------------------------------------

    def apply_data_reordering(self, reordering: DataReordering) -> "ProgramState":
        """``M_{I->a'} = R . M_{I->a}`` for each affected array."""
        unknown = set(reordering.arrays) - set(self.data_mappings)
        if unknown:
            raise KeyError(f"unknown arrays in data reordering: {sorted(unknown)}")
        new_mappings = dict(self.data_mappings)
        for array in reordering.arrays:
            new_mappings[array] = _canonize_mapping(
                self.data_mappings[array].then(reordering.relation).simplified()
            )
        return ProgramState(
            kernel=self.kernel,
            iteration_space=self.iteration_space,
            data_mappings=new_mappings,
            dependences=self.dependences,
            history=self.history + [reordering],
        )

    def apply_iteration_reordering(
        self,
        reordering: IterationReordering,
        transformed: Optional[Dict[int, PresburgerRelation]] = None,
    ) -> "ProgramState":
        """Rewrite I, every M, and every D through ``T``; ``transformed``
        holds ``T.conjugate(D)`` by position for Ds already composed."""
        T = reordering.relation
        if T.in_arity != self.tuple_arity:
            raise ValueError(
                f"T expects {T.in_arity}-tuples, state has {self.tuple_arity}"
            )
        transformed = transformed or {}
        T_inv = T.inverse()
        new_space = _canonize_set(T.apply_set(self.iteration_space))
        new_mappings = {
            array: _canonize_mapping(T_inv.then(mapping).simplified())
            for array, mapping in self.data_mappings.items()
        }
        new_dependences = [
            replace(
                dep,
                relation=_canonize_dependence_relation(
                    transformed.get(position) or T.conjugate(dep.relation)
                ),
            )
            for position, dep in enumerate(self.dependences)
        ]
        return ProgramState(
            kernel=self.kernel,
            iteration_space=new_space,
            data_mappings=new_mappings,
            dependences=new_dependences,
            history=self.history + [reordering],
        )

    def apply(self, transformation, transformed=None) -> "ProgramState":
        """Dispatch on transformation type."""
        if isinstance(transformation, DataReordering):
            return self.apply_data_reordering(transformation)
        if isinstance(transformation, IterationReordering):
            return self.apply_iteration_reordering(transformation, transformed)
        raise TypeError(f"not a reordering transformation: {transformation!r}")

    def describe(self) -> str:
        lines = [f"ProgramState for {self.kernel.name!r} after {len(self.history)} transformations"]
        lines.append(f"  I ({self.tuple_arity}-tuples): {len(self.iteration_space.conjunctions)} conjunction(s)")
        for array, mapping in sorted(self.data_mappings.items()):
            lines.append(f"  M[{array}]: {mapping!r}")
        for dep in self.dependences:
            lines.append(f"  {dep!r}")
        return "\n".join(lines)
