"""Integer tuple relations: unions of conjunctions over input+output tuples.

A :class:`PresburgerRelation` is ``{[p1,...,pm] -> [q1,...,qn] : C}`` (a
union of such conjunctions).  Input and output variable names are disjoint
inside one relation; the parser resolves the common paper idiom of reusing a
name on both sides (``[s,1,i,1] -> [s,1,i1,1]``, meaning the output ``s``
equals the input ``s``) by introducing primed output variables plus equality
constraints.

Composition introduces existential variables for the middle tuple and then
simplifies them away whenever they are defined by equalities (always the
case for the functional relations used in the paper).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from repro.presburger.constraints import Constraint, eq
from repro.presburger.sets import Conjunction, PresburgerSet, fresh_name
from repro.presburger.terms import AffineExpr


class PresburgerRelation:
    """A union of conjunctions relating an input tuple to an output tuple."""

    __slots__ = ("in_vars", "out_vars", "conjunctions")

    def __init__(
        self,
        in_vars: Sequence[str],
        out_vars: Sequence[str],
        conjunctions: Iterable[Conjunction] = (),
    ):
        self.in_vars: Tuple[str, ...] = tuple(in_vars)
        self.out_vars: Tuple[str, ...] = tuple(out_vars)
        all_vars = self.in_vars + self.out_vars
        if len(set(all_vars)) != len(all_vars):
            raise ValueError(
                f"input/output variables must be disjoint: {all_vars}"
            )
        self.conjunctions: Tuple[Conjunction, ...] = tuple(conjunctions)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_constraints(
        in_vars: Sequence[str],
        out_vars: Sequence[str],
        constraints: Iterable[Constraint],
        exist_vars: Iterable[str] = (),
    ) -> "PresburgerRelation":
        return PresburgerRelation(
            in_vars, out_vars, [Conjunction(constraints, exist_vars)]
        )

    @staticmethod
    def identity(in_vars: Sequence[str]) -> "PresburgerRelation":
        """The identity relation on tuples of the given arity."""
        in_vars = tuple(in_vars)
        out_vars = tuple(f"{v}__out" for v in in_vars)
        constraints = [
            eq(AffineExpr.var(o), AffineExpr.var(i))
            for i, o in zip(in_vars, out_vars)
        ]
        return PresburgerRelation.from_constraints(in_vars, out_vars, constraints)

    # -- shape -------------------------------------------------------------------

    @property
    def in_arity(self) -> int:
        return len(self.in_vars)

    @property
    def out_arity(self) -> int:
        return len(self.out_vars)

    def is_empty_syntactically(self) -> bool:
        return not self.conjunctions

    # -- renaming -----------------------------------------------------------------

    def rename_tuples(
        self, new_in: Sequence[str], new_out: Sequence[str]
    ) -> "PresburgerRelation":
        new_in, new_out = tuple(new_in), tuple(new_out)
        if len(new_in) != self.in_arity or len(new_out) != self.out_arity:
            raise ValueError("rename must preserve arities")
        mapping = dict(zip(self.in_vars + self.out_vars, new_in + new_out))
        return PresburgerRelation(
            new_in, new_out, (c.rename(mapping) for c in self.conjunctions)
        )

    def _fresh_renamed(self) -> "PresburgerRelation":
        """Rename all tuple vars and existentials to globally fresh names."""
        new_in = tuple(fresh_name("i") for _ in self.in_vars)
        new_out = tuple(fresh_name("o") for _ in self.out_vars)
        renamed = self.rename_tuples(new_in, new_out)
        conjs = []
        for c in renamed.conjunctions:
            ex_map = {v: fresh_name("x") for v in c.exist_vars}
            conjs.append(c.rename(ex_map))
        return PresburgerRelation(new_in, new_out, conjs)

    # -- algebra ----------------------------------------------------------------------

    def union(self, other: "PresburgerRelation") -> "PresburgerRelation":
        if (other.in_arity, other.out_arity) != (self.in_arity, self.out_arity):
            raise ValueError("union requires matching arities")
        other = other.rename_tuples(self.in_vars, self.out_vars)
        return PresburgerRelation(
            self.in_vars, self.out_vars, self.conjunctions + other.conjunctions
        )

    __or__ = union

    def intersect(self, other: "PresburgerRelation") -> "PresburgerRelation":
        if (other.in_arity, other.out_arity) != (self.in_arity, self.out_arity):
            raise ValueError("intersect requires matching arities")
        other = other.rename_tuples(self.in_vars, self.out_vars)
        conjs = [
            a.conjoin(b)
            for a in self.conjunctions
            for b in other.conjunctions
        ]
        return PresburgerRelation(self.in_vars, self.out_vars, conjs)

    __and__ = intersect

    def inverse(self) -> "PresburgerRelation":
        return PresburgerRelation(self.out_vars, self.in_vars, self.conjunctions)

    def subtract(self, other: "PresburgerRelation") -> "PresburgerRelation":
        """Relation difference ``self \\ other`` (exact; see
        :meth:`PresburgerSet.subtract` for the construction and the
        no-existentials restriction on the subtrahend)."""
        if (other.in_arity, other.out_arity) != (self.in_arity, self.out_arity):
            raise ValueError("subtract requires matching arities")
        all_vars = self.in_vars + self.out_vars
        mine = PresburgerSet(all_vars, self.conjunctions)
        theirs = PresburgerSet(
            all_vars,
            other.rename_tuples(self.in_vars, self.out_vars).conjunctions,
        )
        diff = mine.subtract(theirs)
        return PresburgerRelation(self.in_vars, self.out_vars, diff.conjunctions)

    __sub__ = subtract

    def then(self, after: "PresburgerRelation") -> "PresburgerRelation":
        """Sequential composition ``after . self``:
        ``{x -> z : exists y : self(x, y) and after(y, z)}``.
        """
        if after.in_arity != self.out_arity:
            raise ValueError(
                f"composition arity mismatch: {self.out_arity} -> {after.in_arity}"
            )
        first = self._fresh_renamed()
        second = after._fresh_renamed()
        mids = tuple(fresh_name("m") for _ in range(self.out_arity))
        first = first.rename_tuples(first.in_vars, mids)
        second = second.rename_tuples(mids, second.out_vars)
        conjs = []
        for a in first.conjunctions:
            for b in second.conjunctions:
                merged = a.conjoin(b)
                conjs.append(
                    Conjunction(merged.constraints, merged.exist_vars + mids)
                )
        out = PresburgerRelation(first.in_vars, second.out_vars, conjs)
        return out.simplified()

    def conjugate(self, relation: "PresburgerRelation") -> "PresburgerRelation":
        """``self . relation . self^-1``: ``relation`` carried into this
        relation's image space (a dependence under a reordering ``T``)."""
        return self.inverse().then(relation).then(self).simplified()

    def compose(self, inner: "PresburgerRelation") -> "PresburgerRelation":
        """Classical composition ``self . inner`` (apply ``inner`` first)."""
        return inner.then(self)

    def power(self, k: int) -> "PresburgerRelation":
        """``R^k``: the relation composed with itself ``k`` times.

        ``k = 0`` is the identity on the input arity (requires square
        relations, i.e. equal in/out arity).  Used for reasoning about
        dependence chains across a fixed number of steps.
        """
        if self.in_arity != self.out_arity:
            raise ValueError("power requires a square relation")
        if k < 0:
            raise ValueError("negative powers are not defined")
        if k == 0:
            return PresburgerRelation.identity(self.in_vars)
        result = self
        for _ in range(k - 1):
            result = result.then(self)
        return result

    def paths_upto(self, k: int) -> "PresburgerRelation":
        """``R union R^2 union ... union R^k`` — a bounded transitive
        closure, sufficient for checking dependence chains of bounded
        length (full closure with UFS is not computable in general)."""
        if k < 1:
            raise ValueError("paths_upto requires k >= 1")
        result = self
        current = self
        for _ in range(k - 1):
            current = current.then(self)
            result = result.union(
                current.rename_tuples(result.in_vars, result.out_vars)
            )
        return result

    def apply_set(self, domain_set: PresburgerSet) -> PresburgerSet:
        """Image of a set: ``{y : exists x in S : (x -> y) in R}``."""
        if domain_set.arity != self.in_arity:
            raise ValueError("apply_set arity mismatch")
        rel = self._fresh_renamed()
        dom = domain_set.rename_tuple(rel.in_vars)
        conjs = []
        for a in dom.conjunctions:
            for b in rel.conjunctions:
                merged = a.conjoin(b)
                conjs.append(
                    Conjunction(
                        merged.constraints, merged.exist_vars + rel.in_vars
                    )
                )
        out = PresburgerSet(rel.out_vars, conjs)
        return out.simplified()

    def restrict_domain(self, domain_set: PresburgerSet) -> "PresburgerRelation":
        if domain_set.arity != self.in_arity:
            raise ValueError("restrict_domain arity mismatch")
        dom = domain_set.rename_tuple(self.in_vars)
        conjs = [
            a.conjoin(b)
            for a in self.conjunctions
            for b in dom.conjunctions
        ]
        return PresburgerRelation(self.in_vars, self.out_vars, conjs)

    def restrict_range(self, range_set: PresburgerSet) -> "PresburgerRelation":
        if range_set.arity != self.out_arity:
            raise ValueError("restrict_range arity mismatch")
        rng = range_set.rename_tuple(self.out_vars)
        conjs = [
            a.conjoin(b)
            for a in self.conjunctions
            for b in rng.conjunctions
        ]
        return PresburgerRelation(self.in_vars, self.out_vars, conjs)

    def domain(self) -> PresburgerSet:
        """Projection onto the input tuple (outputs become existentials)."""
        conjs = [
            Conjunction(c.constraints, c.exist_vars + self.out_vars)
            for c in self.conjunctions
        ]
        return PresburgerSet(self.in_vars, conjs).simplified()

    def range(self) -> PresburgerSet:
        conjs = [
            Conjunction(c.constraints, c.exist_vars + self.in_vars)
            for c in self.conjunctions
        ]
        return PresburgerSet(self.out_vars, conjs).simplified()

    def simplified(self) -> "PresburgerRelation":
        from repro.presburger.simplify import simplify_conjunction

        conjs = []
        for c in self.conjunctions:
            s = simplify_conjunction(c)
            if s is not None:
                conjs.append(s)
        return PresburgerRelation(self.in_vars, self.out_vars, conjs)

    # -- introspection ------------------------------------------------------------------

    def free_symbols(self) -> frozenset:
        bound = set(self.in_vars) | set(self.out_vars)
        out = set()
        for c in self.conjunctions:
            out |= c.free_vars()
        return frozenset(out - bound)

    def uf_names(self) -> frozenset:
        out = set()
        for c in self.conjunctions:
            out |= c.uf_names()
        return frozenset(out)

    def __eq__(self, other):
        return (
            isinstance(other, PresburgerRelation)
            and self.in_vars == other.in_vars
            and self.out_vars == other.out_vars
            and set(self.conjunctions) == set(other.conjunctions)
        )

    def __hash__(self):
        return hash((self.in_vars, self.out_vars, frozenset(self.conjunctions)))

    def __repr__(self):
        head = f"[{', '.join(self.in_vars)}] -> [{', '.join(self.out_vars)}]"
        if not self.conjunctions:
            return f"{{{head} : false}}"
        pieces = [f"{{{head} : {conj!r}}}" for conj in self.conjunctions]
        return " union ".join(pieces)
