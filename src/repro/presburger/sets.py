"""Integer tuple sets: unions of constraint conjunctions.

A :class:`PresburgerSet` is ``{[v1,...,vn] : C1} union {[v1,...,vn] : C2}
union ...`` where each ``Ci`` is a :class:`Conjunction` — a list of
:class:`~repro.presburger.constraints.Constraint` objects, possibly with
existentially quantified variables.

Variables not in the tuple and not existential are *symbolic constants*
(e.g. ``num_nodes``) or uninterpreted function symbols applied to arguments.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence, Tuple

from repro.presburger.constraints import Constraint, ConstraintKind, eq
from repro.presburger.terms import AffineExpr

_fresh_counter = itertools.count()


def fresh_name(prefix: str = "e") -> str:
    """A globally fresh variable name (used for existentials on compose)."""
    return f"__{prefix}{next(_fresh_counter)}"


class Conjunction:
    """A conjunction of constraints with optional existential variables."""

    __slots__ = ("constraints", "exist_vars")

    def __init__(
        self,
        constraints: Iterable[Constraint] = (),
        exist_vars: Iterable[str] = (),
    ):
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)
        self.exist_vars: Tuple[str, ...] = tuple(dict.fromkeys(exist_vars))

    def __eq__(self, other):
        return (
            isinstance(other, Conjunction)
            and set(self.constraints) == set(other.constraints)
            and set(self.exist_vars) == set(other.exist_vars)
        )

    def __hash__(self):
        return hash((frozenset(self.constraints), frozenset(self.exist_vars)))

    def __repr__(self):
        body = " && ".join(map(repr, self.constraints)) or "true"
        if self.exist_vars:
            return f"exists({', '.join(self.exist_vars)}: {body})"
        return body

    def free_vars(self) -> frozenset:
        out = set()
        for c in self.constraints:
            out |= c.free_vars()
        return frozenset(out - set(self.exist_vars))

    def uf_names(self) -> frozenset:
        out = set()
        for c in self.constraints:
            out |= c.uf_names()
        return frozenset(out)

    def substitute(self, mapping: Mapping[str, AffineExpr]) -> "Conjunction":
        """Substitute *free* variables; existentials are untouched (callers
        must not substitute names that collide with existentials)."""
        mapping = {k: v for k, v in mapping.items() if k not in self.exist_vars}
        return Conjunction(
            (c.substitute(mapping) for c in self.constraints), self.exist_vars
        )

    def rename(self, mapping: Mapping[str, str]) -> "Conjunction":
        ex = tuple(mapping.get(v, v) for v in self.exist_vars)
        return Conjunction((c.rename(mapping) for c in self.constraints), ex)

    def conjoin(self, other: "Conjunction") -> "Conjunction":
        return Conjunction(
            self.constraints + other.constraints,
            self.exist_vars + other.exist_vars,
        )

    def with_constraints(self, extra: Iterable[Constraint]) -> "Conjunction":
        return Conjunction(self.constraints + tuple(extra), self.exist_vars)

    def is_trivially_false(self) -> bool:
        return any(c.is_trivially_false() for c in self.constraints)


class PresburgerSet:
    """A union of conjunctions over a fixed tuple of variables."""

    __slots__ = ("tuple_vars", "conjunctions")

    def __init__(
        self,
        tuple_vars: Sequence[str],
        conjunctions: Iterable[Conjunction] = (),
    ):
        self.tuple_vars: Tuple[str, ...] = tuple(tuple_vars)
        if len(set(self.tuple_vars)) != len(self.tuple_vars):
            raise ValueError(f"duplicate tuple variables: {self.tuple_vars}")
        self.conjunctions: Tuple[Conjunction, ...] = tuple(conjunctions)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def universe(tuple_vars: Sequence[str]) -> "PresburgerSet":
        return PresburgerSet(tuple_vars, [Conjunction()])

    @staticmethod
    def empty(tuple_vars: Sequence[str]) -> "PresburgerSet":
        return PresburgerSet(tuple_vars, [])

    @property
    def arity(self) -> int:
        return len(self.tuple_vars)

    def is_empty_syntactically(self) -> bool:
        """True when no conjunction remains (syntactic check only)."""
        return not self.conjunctions

    # -- algebra ----------------------------------------------------------------

    def _aligned(self, other: "PresburgerSet") -> "PresburgerSet":
        if other.arity != self.arity:
            raise ValueError(
                f"arity mismatch: {self.tuple_vars} vs {other.tuple_vars}"
            )
        if other.tuple_vars == self.tuple_vars:
            return other
        return other.rename_tuple(self.tuple_vars)

    def union(self, other: "PresburgerSet") -> "PresburgerSet":
        other = self._aligned(other)
        return PresburgerSet(
            self.tuple_vars, self.conjunctions + other.conjunctions
        )

    __or__ = union

    def intersect(self, other: "PresburgerSet") -> "PresburgerSet":
        other = self._aligned(other)
        conjs = [
            a.conjoin(b)
            for a in self.conjunctions
            for b in other.conjunctions
        ]
        return PresburgerSet(self.tuple_vars, conjs)

    __and__ = intersect

    def subtract(self, other: "PresburgerSet") -> "PresburgerSet":
        """Set difference ``self \\ other`` (exact).

        The complement of a conjunction is the disjunction of its negated
        constraints (an equality splits into ``> 0`` and ``< 0``);
        subtracting a union intersects the complements, distributing the
        disjunctions.  Existentially quantified subtrahends are rejected —
        negating an existential needs universal quantification, which the
        conjunction language cannot express.
        """
        other = self._aligned(other)
        for conj in other.conjunctions:
            if conj.exist_vars:
                raise ValueError(
                    "cannot subtract a set with existential variables"
                )

        def negation_pieces(conj: Conjunction):
            """The complement as a list of single-constraint alternatives."""
            pieces = []
            for c in conj.constraints:
                if c.kind is ConstraintKind.GEQ:
                    pieces.append(c.negated())
                else:
                    # e = 0 fails when e >= 1 or -e >= 1.
                    pieces.append(Constraint(c.expr - 1, ConstraintKind.GEQ))
                    pieces.append(Constraint(-c.expr - 1, ConstraintKind.GEQ))
            return pieces

        result = list(self.conjunctions)
        for b in other.conjunctions:
            pieces = negation_pieces(b)
            if not pieces:
                return PresburgerSet.empty(self.tuple_vars)  # b is universe
            result = [
                a.with_constraints([piece])
                for a in result
                for piece in pieces
            ]
        return PresburgerSet(self.tuple_vars, result).simplified()

    __sub__ = subtract

    def constrain(self, *constraints: Constraint) -> "PresburgerSet":
        return PresburgerSet(
            self.tuple_vars,
            (c.with_constraints(constraints) for c in self.conjunctions),
        )

    def rename_tuple(self, new_vars: Sequence[str]) -> "PresburgerSet":
        new_vars = tuple(new_vars)
        if len(new_vars) != self.arity:
            raise ValueError("rename must preserve arity")
        mapping = dict(zip(self.tuple_vars, new_vars))
        return PresburgerSet(
            new_vars, (c.rename(mapping) for c in self.conjunctions)
        )

    def fix_tuple_position(self, index: int, value: int) -> "PresburgerSet":
        """Add the constraint ``tuple_vars[index] = value``."""
        return self.constrain(eq(AffineExpr.var(self.tuple_vars[index]), value))

    def simplified(self) -> "PresburgerSet":
        from repro.presburger.simplify import simplify_conjunction

        conjs = []
        for c in self.conjunctions:
            s = simplify_conjunction(c)
            if s is not None:
                conjs.append(s)
        return PresburgerSet(self.tuple_vars, conjs)

    # -- introspection -------------------------------------------------------------

    def free_symbols(self) -> frozenset:
        """Free names that are not tuple variables (symbolic constants)."""
        out = set()
        for c in self.conjunctions:
            out |= c.free_vars()
        return frozenset(out - set(self.tuple_vars))

    def uf_names(self) -> frozenset:
        out = set()
        for c in self.conjunctions:
            out |= c.uf_names()
        return frozenset(out)

    def __eq__(self, other):
        return (
            isinstance(other, PresburgerSet)
            and self.tuple_vars == other.tuple_vars
            and set(self.conjunctions) == set(other.conjunctions)
        )

    def __hash__(self):
        return hash((self.tuple_vars, frozenset(self.conjunctions)))

    def __repr__(self):
        head = f"[{', '.join(self.tuple_vars)}]"
        if not self.conjunctions:
            return f"{{{head} : false}}"
        pieces = [f"{{{head} : {conj!r}}}" for conj in self.conjunctions]
        return " union ".join(pieces)
