"""Constraints over affine expressions: ``expr = 0`` and ``expr >= 0``.

Following the Omega library convention every constraint is normalized to
one of two kinds:

* ``EQ``  — the expression equals zero,
* ``GEQ`` — the expression is greater than or equal to zero.

Strict inequalities over integers are expressed by shifting the constant
(``a < b`` becomes ``b - a - 1 >= 0``).
"""

from __future__ import annotations

import enum
from typing import Mapping, Optional

from repro.presburger.terms import AffineExpr, ExprLike, coerce_expr


def _isolated(expr: AffineExpr, atom, c: int) -> AffineExpr:
    """``c*atom + rest = 0`` with ``c = +/-1``  =>  ``atom = -c*rest``."""
    return AffineExpr(
        {a: -c * k for a, k in expr.coeffs.items() if a != atom}, -c * expr.const
    )


class ConstraintKind(enum.Enum):
    EQ = "="
    GEQ = ">="


class Constraint:
    """A single normalized constraint, immutable and hashable."""

    __slots__ = ("expr", "kind", "_hash")

    def __init__(self, expr: AffineExpr, kind: ConstraintKind):
        self.expr = expr
        self.kind = kind
        self._hash = hash((expr, kind))

    def __eq__(self, other):
        return (
            isinstance(other, Constraint)
            and self.kind == other.kind
            and self.expr == other.expr
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.expr} {self.kind.value} 0"

    # -- queries --------------------------------------------------------------

    def free_vars(self) -> frozenset:
        return self.expr.free_vars()

    def uf_names(self) -> frozenset:
        return self.expr.uf_names()

    def is_trivially_true(self) -> bool:
        if not self.expr.is_constant():
            return False
        if self.kind is ConstraintKind.EQ:
            return self.expr.const == 0
        return self.expr.const >= 0

    def is_trivially_false(self) -> bool:
        if not self.expr.is_constant():
            return False
        if self.kind is ConstraintKind.EQ:
            return self.expr.const != 0
        return self.expr.const < 0

    def solve_for(self, name: str) -> Optional[AffineExpr]:
        """If an EQ constraint defines ``name`` (coefficient +/-1 and the
        variable does not also occur inside a UF-call argument), return the
        defining expression; otherwise ``None``.
        """
        if self.kind is not ConstraintKind.EQ:
            return None
        c = self.expr.coeff(name)
        if c not in (1, -1):
            return None
        definition = _isolated(self.expr, name, c)
        if name in definition.free_vars():
            return None  # also occurs inside a UF argument; cannot isolate
        return definition

    def solve_for_ufatom(self):
        """If an EQ constraint defines a UF-call atom (coefficient +/-1 and
        the atom does not occur elsewhere in the constraint), return the
        pair ``(atom, defining expression)``; otherwise ``None``.

        Example: ``i1 - sigma(m) = 0`` yields ``(sigma(m), i1)``, letting the
        simplifier rewrite other occurrences of ``sigma(m)`` to ``i1``.
        """
        if self.kind is not ConstraintKind.EQ:
            return None
        from repro.presburger.terms import UFCall

        for atom, coeff in self.expr.coeffs.items():
            if not isinstance(atom, UFCall) or coeff not in (1, -1):
                continue
            definition = _isolated(self.expr, atom, coeff)
            if not definition.contains_atom(atom):
                return atom, definition
        return None

    # -- rewriting --------------------------------------------------------------

    def substitute_atom(self, atom, replacement: AffineExpr) -> "Constraint":
        return Constraint(self.expr.substitute_atom(atom, replacement), self.kind)

    def substitute(self, mapping: Mapping[str, AffineExpr]) -> "Constraint":
        expr = self.expr.substitute(mapping)
        return self if expr is self.expr else Constraint(expr, self.kind)

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        expr = self.expr.rename(mapping)
        return self if expr is self.expr else Constraint(expr, self.kind)

    def negated(self) -> "Constraint":
        """Negation of a GEQ constraint (``e >= 0`` becomes ``-e - 1 >= 0``).

        EQ constraints do not have a single-constraint negation; callers that
        need it must split into two GEQs first.
        """
        if self.kind is ConstraintKind.EQ:
            raise ValueError("cannot negate an equality into one constraint")
        return Constraint(-self.expr - 1, ConstraintKind.GEQ)


# -- constructors ----------------------------------------------------------------


def eq(a: ExprLike, b: ExprLike = 0) -> Constraint:
    """Constraint ``a = b``."""
    return Constraint(coerce_expr(a) - coerce_expr(b), ConstraintKind.EQ)


def geq(a: ExprLike, b: ExprLike = 0) -> Constraint:
    """Constraint ``a >= b``."""
    return Constraint(coerce_expr(a) - coerce_expr(b), ConstraintKind.GEQ)


def leq(a: ExprLike, b: ExprLike = 0) -> Constraint:
    """Constraint ``a <= b``."""
    return Constraint(coerce_expr(b) - coerce_expr(a), ConstraintKind.GEQ)


def lt(a: ExprLike, b: ExprLike) -> Constraint:
    """Constraint ``a < b`` over the integers."""
    return Constraint(coerce_expr(b) - coerce_expr(a) - 1, ConstraintKind.GEQ)


def gt(a: ExprLike, b: ExprLike) -> Constraint:
    """Constraint ``a > b`` over the integers."""
    return Constraint(coerce_expr(a) - coerce_expr(b) - 1, ConstraintKind.GEQ)
