"""Affine expressions over tuple variables, symbols, and UFS calls.

An :class:`AffineExpr` is an integer-linear combination of *atoms* plus an
integer constant.  An atom is either a variable name (a plain ``str`` — tuple
variables and symbolic constants share the namespace; which one a name is
depends on context) or a :class:`UFCall`, an application of an uninterpreted
function symbol to a tuple of affine argument expressions, e.g. ``left(j)``
or ``sigma(left(j) + 1)``.

Expressions are immutable and hashable so they can be used as dictionary
keys and members of frozensets, which the simplifier relies on.
"""

from __future__ import annotations

import collections.abc
from typing import Dict, Iterable, Mapping, Tuple, Union

Atom = Union[str, "UFCall"]


def _bump(coeffs: Dict[Atom, int], atom: Atom, c: int) -> None:
    """Add ``c*atom`` in place; a term that cancels leaves, so one that
    comes back goes last — the order a chain of ``+`` gives, on which
    ``Constraint.solve_for_ufatom`` (first UF atom) depends."""
    total = coeffs.get(atom, 0) + c
    if total:
        coeffs[atom] = total
    else:
        coeffs.pop(atom, None)


def _atom_sort_key(atom: Atom):
    """Stable ordering across the two atom kinds (vars first, then UF calls)."""
    if isinstance(atom, str):
        return (0, atom, ())
    return (1, atom.name, tuple(repr(a) for a in atom.args))


class UFCall:
    """An uninterpreted function symbol applied to affine arguments.

    ``UFCall("left", (AffineExpr.var("j"),))`` renders as ``left(j)``.
    Instances are immutable; equality and hashing are structural.
    """

    __slots__ = ("name", "args", "_hash")

    def __init__(self, name: str, args: Iterable["AffineExpr"]):
        self.name = name
        self.args = tuple(args)
        if not self.args:
            raise ValueError("UFCall requires at least one argument")
        self._hash = hash((name, self.args))

    def __eq__(self, other):
        return (
            isinstance(other, UFCall)
            and self.name == other.name
            and self.args == other.args
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.name}({', '.join(str(a) for a in self.args)})"

    def substitute(self, mapping: Mapping[str, "AffineExpr"]) -> "UFCall":
        """Substitute variables inside the arguments (recursively)."""
        return self._map_args(lambda a: a.substitute(mapping))

    def rename(self, mapping: Mapping[str, str]) -> "UFCall":
        return self._map_args(lambda a: a.rename(mapping))

    def _map_args(self, f) -> "UFCall":
        """This call over ``f(arg)``s; ``self`` when each is its argument."""
        args = tuple(map(f, self.args))
        same = all(new is old for new, old in zip(args, self.args))
        return self if same else UFCall(self.name, args)

    def free_vars(self) -> frozenset:
        out = set()
        for a in self.args:
            out |= a.free_vars()
        return frozenset(out)

    def uf_names(self) -> frozenset:
        out = {self.name}
        for a in self.args:
            out |= a.uf_names()
        return frozenset(out)


class AffineExpr:
    """An immutable integer-affine expression: sum of coeff*atom plus const."""

    __slots__ = ("coeffs", "const", "_hash", "_free")

    def __init__(self, coeffs: Mapping[Atom, int] = (), const: int = 0):
        if type(coeffs) is dict:  # distinct keys: cleaning drops zeros
            cleaned = {atom: c for atom, c in coeffs.items() if c}
        else:
            cleaned = {}
            if isinstance(coeffs, collections.abc.Mapping):
                coeffs = coeffs.items()
            for atom, c in coeffs:
                _bump(cleaned, atom, c)
        self.coeffs: Dict[Atom, int] = cleaned
        self.const = const
        self._hash = hash((frozenset(cleaned.items()), const))
        self._free = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def var(name: str) -> "AffineExpr":
        return AffineExpr({name: 1})

    @staticmethod
    def constant(value: int) -> "AffineExpr":
        return AffineExpr({}, value)

    @staticmethod
    def ufs(name: str, *args: "ExprLike") -> "AffineExpr":
        return AffineExpr({UFCall(name, tuple(_coerce(a) for a in args)): 1})

    # -- queries -----------------------------------------------------------

    def is_constant(self) -> bool:
        return not self.coeffs

    def coeff(self, atom: Atom) -> int:
        return self.coeffs.get(atom, 0)

    def atoms(self) -> Tuple[Atom, ...]:
        return tuple(sorted(self.coeffs, key=_atom_sort_key))

    def free_vars(self) -> frozenset:
        """All variable names appearing anywhere, including inside UF calls."""
        if self._free is None:
            out = set()
            for atom in self.coeffs:
                if isinstance(atom, str):
                    out.add(atom)
                else:
                    out |= atom.free_vars()
            self._free = frozenset(out)
        return self._free

    def top_level_vars(self) -> frozenset:
        """Variable names with a direct coefficient (not hidden in UF args)."""
        return frozenset(a for a in self.coeffs if isinstance(a, str))

    def uf_names(self) -> frozenset:
        out = set()
        for atom in self.coeffs:
            if isinstance(atom, UFCall):
                out |= atom.uf_names()
        return frozenset(out)

    def var_only_inside_uf(self, name: str) -> bool:
        """True if ``name`` occurs, but only inside UF-call arguments."""
        if name in self.top_level_vars():
            return False
        return name in self.free_vars()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ExprLike") -> "AffineExpr":
        other = _coerce(other)
        coeffs = dict(self.coeffs)
        for atom, c in other.coeffs.items():
            coeffs[atom] = coeffs.get(atom, 0) + c
        return AffineExpr(coeffs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr({a: -c for a, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other: "ExprLike") -> "AffineExpr":
        return self + (-_coerce(other))

    def __rsub__(self, other: "ExprLike") -> "AffineExpr":
        return _coerce(other) + (-self)

    def __mul__(self, k: int) -> "AffineExpr":
        if not isinstance(k, int):
            raise TypeError("affine expressions only scale by integers")
        return AffineExpr({a: c * k for a, c in self.coeffs.items()}, self.const * k)

    __rmul__ = __mul__

    # -- substitution --------------------------------------------------------

    def _summed(self, rewrite) -> "AffineExpr":
        """Sum of ``c * rewrite(atom)`` (an atom or an expression) in one
        dict, in a chain of ``+``'s order."""
        coeffs: Dict[Atom, int] = {}
        const = self.const
        for atom, c in self.coeffs.items():
            new = rewrite(atom)
            if isinstance(new, AffineExpr):
                const += new.const * c
                for a, k in new.coeffs.items():
                    _bump(coeffs, a, k * c)
            else:
                _bump(coeffs, new, c)
        return AffineExpr(coeffs, const)

    def substitute(self, mapping: Mapping[str, "AffineExpr"]) -> "AffineExpr":
        """Replace variables per ``mapping`` everywhere, incl. UF arguments
        (``self`` when ``mapping`` names none of them)."""
        if mapping.keys().isdisjoint(self.free_vars()):
            return self
        return self._summed(lambda a: mapping.get(a, a) if isinstance(a, str)
                            else a.substitute(mapping))

    def rename(self, mapping: Mapping[str, str]) -> "AffineExpr":
        """Rename variables everywhere; ``self`` when no name changes."""
        if all(mapping.get(v, v) == v for v in self.free_vars()):
            return self
        return self._summed(lambda a: mapping.get(a, a) if isinstance(a, str)
                            else a.rename(mapping))

    def contains_atom(self, atom: Atom) -> bool:
        """True when ``atom`` occurs at top level or nested in UF arguments."""
        for a in self.coeffs:
            if a == atom:
                return True
            if isinstance(a, UFCall) and any(
                arg.contains_atom(atom) for arg in a.args
            ):
                return True
        return False

    def substitute_atom(self, atom: Atom, replacement: "AffineExpr") -> "AffineExpr":
        """Replace every occurrence of ``atom`` (incl. inside UF args).

        This is the congruence step used by the simplifier: once an
        equality pins ``sigma(m)`` to a variable, other constraints can
        refer to the variable instead of the call.
        """
        def rewrite(a):
            if a == atom:
                return replacement
            if isinstance(a, UFCall):
                return a._map_args(lambda x: x.substitute_atom(atom, replacement))
            return a

        return self._summed(rewrite)

    # -- dunder plumbing ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, AffineExpr)
            and self.const == other.const
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.coeffs:
            return str(self.const)
        parts = []
        for atom in self.atoms():
            c = self.coeffs[atom]
            name = atom if isinstance(atom, str) else repr(atom)
            if c == 1:
                term = f"{name}"
            elif c == -1:
                term = f"-{name}"
            else:
                term = f"{c}{name}"
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        if self.const:
            parts.append(f"+{self.const}" if self.const > 0 else str(self.const))
        return "".join(parts)


ExprLike = Union[AffineExpr, int, str]


def _coerce(value: ExprLike) -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    if isinstance(value, int):
        return AffineExpr.constant(value)
    if isinstance(value, str):
        return AffineExpr.var(value)
    raise TypeError(f"cannot coerce {value!r} to AffineExpr")


# Convenience aliases used throughout the code base.
def var(name: str) -> AffineExpr:
    """Affine expression consisting of a single variable."""
    return AffineExpr.var(name)


def const(value: int) -> AffineExpr:
    """Affine expression consisting of a single integer constant."""
    return AffineExpr.constant(value)


def symbol(name: str) -> AffineExpr:
    """A symbolic constant (same representation as a variable)."""
    return AffineExpr.var(name)


coerce_expr = _coerce
