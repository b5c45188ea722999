"""Legality of run-time reordering transformations (compile-time side).

The paper's rules (Section 4):

* **Data reorderings never affect dependences** — any one-to-one remapping
  is legal.  The only obligation is bijectivity of the run-time function,
  which the runtime verifier checks on the generated index arrays.
* **Iteration reorderings** must map every dependence source
  lexicographically before its destination: for each ``p -> q`` in ``D``,
  ``T(p) < T(q)``.  Reduction dependences are exempt (footnote 3).
  Transformations applicable to subspaces with dependences must *inspect*
  the dependences at run time (sparse tiling, run-time parallelization);
  for those the obligation is discharged by construction and re-checked by
  the runtime verifier.

With uninterpreted function symbols a full compile-time proof is
undecidable in general.  ``check_iteration_reordering`` therefore returns a
:class:`LegalityReport`: either *proven* (the transformed "violation set"
simplifies to empty), or a list of obligations — the constraints the
run-time reordering functions must satisfy, which is exactly the role the
paper assigns to the framework's legality checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.presburger.ordering import lex_lt_conjunctions
from repro.presburger.relations import PresburgerRelation
from repro.presburger.sets import Conjunction
from repro.uniform.mappings import Dependence
from repro.uniform.state import DataReordering, IterationReordering, ProgramState


# Migrated to the structured taxonomy; re-exported here so existing
# ``from repro.uniform.legality import LegalityError`` imports keep working.
from repro.errors import LegalityError


@dataclass
class Obligation:
    """A constraint set the run-time reordering functions must satisfy.

    ``violations`` is the relation of dependence pairs that would violate
    lexicographic order in the transformed space; the obligation is that it
    be empty once the UFS are bound to the generated index arrays.

    ``stage_index``/``stage_name`` identify the composition step that
    incurred the obligation (attached by
    :meth:`~repro.runtime.plan.CompositionPlan.plan`), so diagnostics can
    point at the offending step rather than just the dependence.
    """

    dependence: Dependence
    violations: PresburgerRelation
    stage_index: Optional[int] = None
    stage_name: str = ""

    @property
    def stage(self) -> str:
        """``"<index>:<name>"`` of the originating step, or ``"?"``."""
        if self.stage_index is None:
            return "?"
        return f"{self.stage_index}:{self.stage_name or '?'}"

    def __repr__(self):
        where = f" @ stage {self.stage}" if self.stage_index is not None else ""
        return (
            f"Obligation({self.dependence.name}{where}: "
            f"require empty {self.violations!r})"
        )


@dataclass
class LegalityReport:
    """Outcome of a compile-time legality check.

    ``stage_index``/``stage_name`` are attached by the planner once the
    report is associated with a concrete composition step (see
    :meth:`attach_stage`).
    """

    proven: bool
    obligations: List[Obligation] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    stage_index: Optional[int] = None
    stage_name: str = ""

    def attach_stage(self, index: int, name: str) -> "LegalityReport":
        """Record the originating step on the report and its obligations."""
        self.stage_index = index
        self.stage_name = name
        for obligation in self.obligations:
            obligation.stage_index = index
            obligation.stage_name = name
        return self

    def __bool__(self):
        return self.proven


def check_data_reordering(
    state: ProgramState, reordering: DataReordering
) -> LegalityReport:
    """Data reorderings are always legal; obligation: bijectivity at run time."""
    return LegalityReport(
        proven=True,
        notes=[
            f"data reordering {reordering.func_name} legal for any one-to-one "
            "remapping; runtime verifier checks the generated function is a "
            "permutation"
        ],
    )


def _violation_relation(
    dep: Dependence, T: PresburgerRelation
) -> PresburgerRelation:
    """Pairs ``(T(p), T(q))`` with ``p -> q`` a dependence and NOT
    ``T(p) < T(q)`` — i.e. ``T(q) <= T(p)`` in lexicographic order.

    Built as ``(T^-1 . D . T^-1^-1)`` intersected with ``out <= in``:
    we transform the dependence into the new space and keep only pairs
    violating the order.  ``out <= in`` is encoded as the union of
    ``out < in`` and ``out = in`` conjunctions.
    """
    return _order_violations(T.conjugate(dep.relation))


def _order_violations(transformed: PresburgerRelation) -> PresburgerRelation:
    """The pairs of a transformed dependence with ``out <= in``."""
    in_vars, out_vars = transformed.in_vars, transformed.out_vars

    # out < in  (strictly later source) ...
    le_conjs = list(lex_lt_conjunctions(out_vars, in_vars))
    # ... or out = in (self-dependence collapses onto one point).
    from repro.presburger.constraints import eq
    from repro.presburger.terms import var

    le_conjs.append(
        Conjunction([eq(var(a), var(b)) for a, b in zip(in_vars, out_vars)])
    )
    bad_order = PresburgerRelation(in_vars, out_vars, le_conjs)
    return transformed.intersect(bad_order).simplified()


def check_iteration_reordering(
    state: ProgramState,
    reordering: IterationReordering,
    skip_reductions: bool = True,
    transformed: Optional[Dict[int, PresburgerRelation]] = None,
) -> LegalityReport:
    """Check ``T`` against every dependence of the current state.

    Returns ``proven=True`` when every non-reduction dependence's violation
    set simplifies to empty.  Otherwise returns the obligations — for an
    inspector that traverses dependences (``inspects_dependences=True``)
    these are discharged by construction, which the report notes.
    ``transformed``, when given, receives each checked ``T . D . T^-1`` by
    position, for ``ProgramState.apply_iteration_reordering`` to reuse.
    """
    obligations: List[Obligation] = []
    notes: List[str] = []
    for position, dep in enumerate(state.dependences):
        if dep.is_reduction and skip_reductions:
            notes.append(f"{dep.name}: reduction dependence, reordering allowed")
            continue
        composed = reordering.relation.conjugate(dep.relation)
        if transformed is not None:
            transformed[position] = composed
        violations = _order_violations(composed)
        if violations.is_empty_syntactically():
            notes.append(f"{dep.name}: proven respected")
        else:
            obligations.append(Obligation(dep, violations))

    if not obligations:
        return LegalityReport(proven=True, notes=notes)
    if reordering.inspects_dependences:
        notes.append(
            "inspector traverses dependences; obligations discharged by "
            "construction (verified again at run time)"
        )
        return LegalityReport(proven=True, obligations=obligations, notes=notes)
    return LegalityReport(proven=False, obligations=obligations, notes=notes)
