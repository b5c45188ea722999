"""The executor loop-nest IR and its front end.

The lowering tier works on a small, explicit IR of the executor loop
nest — the paper's Figures 13/14 as data instead of text — so that an
ordered pass pipeline (:mod:`repro.lowering.passes`) can rewrite it and
two emitters (:mod:`repro.lowering.emit_numpy`,
:mod:`repro.lowering.emit_c`) can render it.

The front end (:func:`lower_kernel`) does **not** hand-write the IR per
kernel: it parses the scalar statement bodies of
:data:`repro.kernels.specs.STATEMENT_CODE` — the same single source of
truth the Python code generator emits — with :mod:`ast`, and recognizes
the update form ``a[idx] = a[idx] ± e1 ± e2 ...``.  The expression tree
is preserved exactly as written (only the left spine of the top-level
``+``/``-`` chain is flattened), because the compiled backends must
reproduce the library executor's floating-point rounding *bit for bit*:
the grouping of ``x[i] + (0.01*vx[i] + 0.0005*fx[i])`` is part of the
semantics.

Everything here is hashable and serializable; :func:`ir_hash` digests a
program for the compiled-artifact cache.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ValidationError

# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Index:
    """How a statement addresses an array: directly by the loop variable
    (``via=None``) or through an index array (``via="left"``)."""

    via: Optional[str] = None

    @property
    def direct(self) -> bool:
        return self.via is None

    def to_dict(self):
        return {"via": self.via}


@dataclass(frozen=True)
class Const:
    value: float

    def to_dict(self):
        return {"const": repr(self.value)}


@dataclass(frozen=True)
class Load:
    array: str
    index: Index

    def to_dict(self):
        return {"load": self.array, "index": self.index.to_dict()}


@dataclass(frozen=True)
class Neg:
    operand: "Expr"

    def to_dict(self):
        return {"neg": self.operand.to_dict()}


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*"
    left: "Expr"
    right: "Expr"

    def to_dict(self):
        return {"op": self.op, "l": self.left.to_dict(), "r": self.right.to_dict()}


Expr = Union[Const, Load, Neg, BinOp]


def expr_loads(expr: Expr) -> List[Load]:
    """Every array load in ``expr``, in evaluation order."""
    if isinstance(expr, Load):
        return [expr]
    if isinstance(expr, Neg):
        return expr_loads(expr.operand)
    if isinstance(expr, BinOp):
        return expr_loads(expr.left) + expr_loads(expr.right)
    return []


# ---------------------------------------------------------------------------
# Statements and loops


@dataclass(frozen=True)
class Update:
    """``array[index] += increment`` (the only statement form the three
    benchmark kernels need — every statement is an update/reduction)."""

    label: str
    array: str
    index: Index
    increment: Expr

    def to_dict(self):
        return {
            "label": self.label,
            "array": self.array,
            "index": self.index.to_dict(),
            "increment": self.increment.to_dict(),
        }


@dataclass(frozen=True)
class Commit:
    """One reduction commit of a fissioned interaction loop:
    ``array[via[j]] += sign * payload[j]``."""

    array: str
    via: str
    sign: int  # +1 or -1
    label: str = ""

    def to_dict(self):
        return {"array": self.array, "via": self.via, "sign": self.sign}


@dataclass(frozen=True)
class GatherCommit:
    """The gather/commit form of an interaction loop after fission.

    ``payload`` is the hoisted common subexpression (pure: it reads no
    array any commit writes), evaluated once per iteration; each
    :class:`Commit` applies it as a signed reduction.  Splitting this way
    is what makes the batched backends bit-identical to the library
    executor — ``np.add.at`` applies contributions array-by-array in
    index order, exactly like one scalar pass per commit."""

    payload: Expr
    commits: Tuple[Commit, ...]

    def to_dict(self):
        return {
            "payload": self.payload.to_dict(),
            "commits": [c.to_dict() for c in self.commits],
        }


@dataclass(frozen=True)
class LoopIR:
    """One loop of the executor nest plus its pass annotations."""

    label: str
    index_var: str
    domain: str  # "nodes" | "inters"
    extent: str  # symbol name ("num_nodes" / "num_inter")
    stmts: Tuple[Update, ...]
    #: Set by the fission pass on interaction loops; ``None`` = scalar form.
    fissioned: Optional[GatherCommit] = None
    #: Set by the vectorize pass: emit batched array operations.
    vector: bool = False

    def to_dict(self):
        return {
            "label": self.label,
            "index_var": self.index_var,
            "domain": self.domain,
            "extent": self.extent,
            "stmts": [s.to_dict() for s in self.stmts],
            "fissioned": self.fissioned.to_dict() if self.fissioned else None,
            "vector": self.vector,
        }


@dataclass(frozen=True)
class Program:
    """An executor loop nest: the time loop around ``loops``."""

    kernel_name: str
    loops: Tuple[LoopIR, ...]
    index_arrays: Tuple[str, ...]
    data_arrays: Tuple[str, ...]
    extents: Tuple[str, ...]
    #: Set by the blocking pass: iterate a sparse-tile schedule outermost.
    tiled: bool = False
    #: Set by the parallelize pass: honor a wavefront grouping of tiles.
    wave_parallel: bool = False

    def to_dict(self):
        return {
            "kernel": self.kernel_name,
            "loops": [l.to_dict() for l in self.loops],
            "index_arrays": list(self.index_arrays),
            "data_arrays": list(self.data_arrays),
            "extents": list(self.extents),
            "tiled": self.tiled,
            "wave_parallel": self.wave_parallel,
        }


def ir_hash(program: Program) -> str:
    """Stable SHA-256 of the (annotated) program — the artifact-cache key
    component that changes whenever the lowered form changes."""
    blob = json.dumps(program.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Front end: kernel IR + STATEMENT_CODE -> Program


def _parse_index(node: ast.expr, loop_var: str, index_arrays) -> Index:
    if isinstance(node, ast.Name):
        if node.id != loop_var:
            raise ValidationError(
                f"index variable {node.id!r} is not the loop variable "
                f"{loop_var!r}"
            )
        return Index(None)
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id in index_arrays
    ):
        inner = node.slice
        if not (isinstance(inner, ast.Name) and inner.id == loop_var):
            raise ValidationError(
                f"indirect index must be <index_array>[{loop_var}]"
            )
        return Index(node.value.id)
    raise ValidationError(f"unsupported index expression {ast.dump(node)}")


def _parse_ref(node: ast.expr, loop_var: str, index_arrays) -> Tuple[str, Index]:
    if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)):
        raise ValidationError(f"unsupported reference {ast.dump(node)}")
    return node.value.id, _parse_index(node.slice, loop_var, index_arrays)


_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}


def _parse_expr(node: ast.expr, loop_var: str, index_arrays) -> Expr:
    if isinstance(node, ast.Constant):
        return Const(float(node.value))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return Neg(_parse_expr(node.operand, loop_var, index_arrays))
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise ValidationError(
                f"unsupported operator {type(node.op).__name__}"
            )
        return BinOp(
            op,
            _parse_expr(node.left, loop_var, index_arrays),
            _parse_expr(node.right, loop_var, index_arrays),
        )
    if isinstance(node, ast.Subscript):
        array, index = _parse_ref(node, loop_var, index_arrays)
        return Load(array, index)
    raise ValidationError(f"unsupported expression {ast.dump(node)}")


def _left_spine_terms(expr: ast.expr) -> List[Tuple[int, ast.expr]]:
    """Flatten only the left spine of a ``+``/``-`` chain into signed
    terms; right operands keep their own grouping (their parentheses are
    semantic — they fix the floating-point rounding)."""
    if isinstance(expr, ast.BinOp) and type(expr.op) in (ast.Add, ast.Sub):
        sign = 1 if isinstance(expr.op, ast.Add) else -1
        return _left_spine_terms(expr.left) + [(sign, expr.right)]
    return [(1, expr)]


def parse_statement(
    label: str, code: str, loop_var: str, index_arrays
) -> Update:
    """Parse one ``STATEMENT_CODE`` body into an :class:`Update`.

    Recognizes ``a[idx] = a[idx] ± e1 ± e2 ...`` where the first term of
    the right-hand chain reloads the target; the increment is the rest of
    the chain folded left-associatively (which is exactly how the
    vectorized library executor groups it: ``x += 0.01*vx + 0.0005*fx``
    evaluates the increment sum before the in-place add).
    """
    tree = ast.parse(code.strip())
    if len(tree.body) != 1 or not isinstance(tree.body[0], ast.Assign):
        raise ValidationError(f"statement {label!r} is not a single assignment")
    assign = tree.body[0]
    if len(assign.targets) != 1:
        raise ValidationError(f"statement {label!r} has multiple targets")
    array, index = _parse_ref(assign.targets[0], loop_var, index_arrays)

    terms = _left_spine_terms(assign.value)
    first_sign, first = terms[0]
    first_expr = _parse_expr(first, loop_var, index_arrays)
    if first_sign != 1 or first_expr != Load(array, index):
        raise ValidationError(
            f"statement {label!r} is not in update form "
            f"(first RHS term must reload the target)"
        )
    if len(terms) < 2:
        raise ValidationError(f"statement {label!r} has an empty increment")

    increment: Optional[Expr] = None
    for sign, term in terms[1:]:
        parsed = _parse_expr(term, loop_var, index_arrays)
        if increment is None:
            increment = parsed if sign > 0 else Neg(parsed)
        else:
            increment = BinOp("+" if sign > 0 else "-", increment, parsed)
    return Update(label, array, index, increment)


def lower_kernel(kernel) -> Program:
    """Lower a compile-time :class:`~repro.uniform.kernel.Kernel` (plus
    its registered scalar statement bodies) into the executor IR."""
    from repro.kernels.specs import STATEMENT_CODE

    try:
        bodies = STATEMENT_CODE[kernel.name]
    except KeyError:
        raise ValidationError(
            f"no statement code registered for kernel {kernel.name!r}"
        ) from None

    index_arrays = tuple(kernel.index_arrays)  # dict: name -> spec
    loops: List[LoopIR] = []
    for loop in kernel.loops:
        domain = "inters" if loop.extent == "num_inter" else "nodes"
        stmts = tuple(
            parse_statement(
                stmt.label, bodies[stmt.label], loop.index_var, index_arrays
            )
            for stmt in loop.statements
        )
        loops.append(
            LoopIR(
                label=loop.label,
                index_var=loop.index_var,
                domain=domain,
                extent=loop.extent,
                stmts=stmts,
            )
        )
    return Program(
        kernel_name=kernel.name,
        loops=tuple(loops),
        index_arrays=index_arrays,
        data_arrays=tuple(kernel.data_arrays),
        extents=tuple(sorted({loop.extent for loop in kernel.loops})),
    )


__all__ = [
    "BinOp",
    "Commit",
    "Const",
    "Expr",
    "GatherCommit",
    "Index",
    "Load",
    "LoopIR",
    "Neg",
    "Program",
    "Update",
    "expr_loads",
    "ir_hash",
    "lower_kernel",
    "parse_statement",
    "replace",
]
