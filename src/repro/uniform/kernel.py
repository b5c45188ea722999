"""Kernel IR: the loop structures targeted by run-time reordering.

The paper's benchmarks (moldyn, nbf, irreg) all share one shape, which this
IR captures directly::

    do s = 0, num_steps-1        # optional outer time-stepping loop
      do i = 0, extent_0-1       # inner loop 0
        S0: statements accessing arrays, possibly through index arrays
      do j = 0, extent_1-1       # inner loop 1
        S1: ...
        S2: ...
      ...

Array subscripts are :class:`~repro.presburger.terms.AffineExpr` objects over
the loop index, possibly containing uninterpreted function symbols naming
*index arrays* (``left(j)``) or previously generated reordering functions.

Everything is 0-based (the paper is 1-based Fortran style; the translation
is mechanical and noted in DESIGN.md).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.presburger.terms import AffineExpr, ExprLike, coerce_expr


class AccessKind(enum.Enum):
    """How a statement touches an array element."""

    READ = "read"
    WRITE = "write"
    #: Commutative/associative read-modify-write (``a[x] += ...``).  Pairs of
    #: UPDATEs to the same array form *reduction dependences*, which permit
    #: reordering (the paper's footnote 3).
    UPDATE = "update"

    @property
    def writes(self) -> bool:
        return self is not AccessKind.READ

    @property
    def reads(self) -> bool:
        return self is not AccessKind.WRITE


@dataclass(frozen=True)
class ArrayAccess:
    """One array access: array name, subscript expression, access kind."""

    array: str
    index: AffineExpr
    kind: AccessKind

    def __post_init__(self):
        object.__setattr__(self, "index", coerce_expr(self.index))

    def __repr__(self):
        return f"{self.array}[{self.index}]:{self.kind.value}"


def read(array: str, index: ExprLike) -> ArrayAccess:
    """A read access ``array[index]``."""
    return ArrayAccess(array, coerce_expr(index), AccessKind.READ)


def write(array: str, index: ExprLike) -> ArrayAccess:
    """A write access ``array[index] = ...``."""
    return ArrayAccess(array, coerce_expr(index), AccessKind.WRITE)


def reduce_into(array: str, index: ExprLike) -> ArrayAccess:
    """A reduction access ``array[index] += ...``."""
    return ArrayAccess(array, coerce_expr(index), AccessKind.UPDATE)


@dataclass(frozen=True)
class Statement:
    """A statement with its array accesses (subscripts use the loop index)."""

    label: str
    accesses: Tuple[ArrayAccess, ...]

    def __init__(self, label: str, accesses: Sequence[ArrayAccess]):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "accesses", tuple(accesses))

    def arrays(self) -> frozenset:
        return frozenset(a.array for a in self.accesses)


@dataclass(frozen=True)
class Loop:
    """An inner loop: index variable, extent symbol, and its statements."""

    label: str
    index_var: str
    extent: str
    statements: Tuple[Statement, ...]

    def __init__(
        self,
        label: str,
        index_var: str,
        extent: str,
        statements: Sequence[Statement],
    ):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "index_var", index_var)
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "statements", tuple(statements))
        if not statements:
            raise ValueError(f"loop {label!r} has no statements")

    @property
    def domain(self) -> str:
        """The space the loop iterates: ``"inters"`` for a loop over the
        interactions, ``"nodes"`` for any other."""
        return "inters" if self.extent == "num_inter" else "nodes"


@dataclass(frozen=True)
class DataArraySpec:
    """A 1-D data array: name and extent symbol (its data space)."""

    name: str
    extent: str
    #: Bytes per element, used by the cache model (default: one double).
    element_bytes: int = 8


@dataclass(frozen=True)
class IndexArraySpec:
    """An index array (uninterpreted function symbol at compile time).

    ``domain_extent`` is the extent symbol of valid argument values and
    ``range_extent`` the extent symbol its values index into (e.g. ``left``
    maps interactions to nodes).
    """

    name: str
    domain_extent: str
    range_extent: str
    element_bytes: int = 4


class Kernel:
    """A full kernel: optional outer time loop around a list of inner loops.

    Parameters
    ----------
    name:
        Kernel name (used in reports and generated code).
    loops:
        Inner loops in textual order.
    data_arrays:
        Specs of the data arrays referenced by statements.
    index_arrays:
        Specs of the index arrays appearing as UFS in subscripts.
    outer_var / outer_extent:
        The time-stepping loop (``None`` for a single-sweep kernel).
    """

    def __init__(
        self,
        name: str,
        loops: Sequence[Loop],
        data_arrays: Sequence[DataArraySpec],
        index_arrays: Sequence[IndexArraySpec] = (),
        outer_var: Optional[str] = "s",
        outer_extent: Optional[str] = "num_steps",
    ):
        self.name = name
        self.loops: Tuple[Loop, ...] = tuple(loops)
        if not self.loops:
            raise ValueError("kernel needs at least one loop")
        self.data_arrays: Dict[str, DataArraySpec] = {
            spec.name: spec for spec in data_arrays
        }
        self.index_arrays: Dict[str, IndexArraySpec] = {
            spec.name: spec for spec in index_arrays
        }
        self.outer_var = outer_var
        self.outer_extent = outer_extent
        self._validate()

    # -- validation --------------------------------------------------------------

    def _validate(self) -> None:
        labels = [loop.label for loop in self.loops]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate loop labels: {labels}")
        stmt_labels = [s.label for loop in self.loops for s in loop.statements]
        if len(set(stmt_labels)) != len(stmt_labels):
            raise ValueError(f"duplicate statement labels: {stmt_labels}")
        known_ufs = set(self.index_arrays)
        for loop in self.loops:
            for stmt in loop.statements:
                for acc in stmt.accesses:
                    if acc.array not in self.data_arrays:
                        raise ValueError(
                            f"{stmt.label}: unknown data array {acc.array!r}"
                        )
                    free = acc.index.free_vars()
                    bad = free - {loop.index_var}
                    if bad:
                        raise ValueError(
                            f"{stmt.label}: subscript uses variables {sorted(bad)} "
                            f"other than the loop index {loop.index_var!r}"
                        )
                    unknown = acc.index.uf_names() - known_ufs
                    if unknown:
                        raise ValueError(
                            f"{stmt.label}: undeclared index arrays {sorted(unknown)}"
                        )

    # -- queries -------------------------------------------------------------------

    @property
    def has_outer_loop(self) -> bool:
        return self.outer_var is not None

    def loop_position(self, label: str) -> int:
        for pos, loop in enumerate(self.loops):
            if loop.label == label:
                return pos
        raise KeyError(label)

    def loop(self, label: str) -> Loop:
        return self.loops[self.loop_position(label)]

    def statement_position(self, label: str) -> Tuple[int, int]:
        """(loop position, statement position within loop) of a statement."""
        for lpos, loop in enumerate(self.loops):
            for spos, stmt in enumerate(loop.statements):
                if stmt.label == label:
                    return lpos, spos
        raise KeyError(label)

    def all_statements(self) -> List[Tuple[int, int, Loop, Statement]]:
        """Flat list of (loop pos, stmt pos, loop, statement)."""
        out = []
        for lpos, loop in enumerate(self.loops):
            for spos, stmt in enumerate(loop.statements):
                out.append((lpos, spos, loop, stmt))
        return out

    def extent_symbols(self) -> frozenset:
        symbols = {loop.extent for loop in self.loops}
        if self.outer_extent:
            symbols.add(self.outer_extent)
        symbols |= {spec.extent for spec in self.data_arrays.values()}
        return frozenset(symbols)

    def __repr__(self):
        inner = ", ".join(loop.label for loop in self.loops)
        outer = f"{self.outer_var}<{self.outer_extent}" if self.has_outer_loop else "-"
        return f"Kernel({self.name!r}, outer={outer}, loops=[{inner}])"
