"""Emit a kernel's NumPy phase table from the rewritten loop-nest IR.

The emitted module is the ``numpy`` executor tier, and the default one:
ordinary Python over ``numpy`` whose payload is ``PHASES``, one
:class:`~repro.lowering.schedule.KernelPhase` per kernel loop, emitted
from the kernel's one definition (:mod:`repro.kernels.specs`, lowered
and rewritten).  The test suite holds it operation-identical to a
hand-written reference table (``tests/kernels/oracle.py``):

* a vectorized node loop is ``apply(arrays, iters)``: the in-place
  update of the statement, over an iteration subset — an index array,
  or a ``slice`` for a range-form tile
  (``x[iters] += 0.01 * vx[iters] + 0.0005 * fx[iters]``);
* a fissioned interaction loop is ``gather(arrays, l, r)`` — one batched,
  pure evaluation of the payload over the endpoint arrays — plus
  ``commit(arrays, l, r, payload)``: one ``np.add.at`` per commit, in
  statement order, the fold order the C tier reproduces, so results are
  bit-identical.

A program that still holds a scalar loop is refused before any source
is written (:func:`~repro.lowering.ir.require_batched`).

The module holds no schedule and no entry point: *how* the table runs —
over which tiles, in ascending tile id — is decided by the tile driver
of :mod:`repro.lowering.schedule`.  An untiled bind is that driver over
the trivial schedule (one tile, every loop a whole-range ``slice``), so
it performs the paper's Figure 13 operation sequence.  With ``sanitize`` the module
also defines ``guard(...)``, the bounds prologue the driver's entry
calls before any mutation.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.codegen.emit import SourceWriter
from repro.errors import ValidationError
from repro.lowering.ir import (
    BinOp,
    Const,
    Expr,
    Load,
    LoopIR,
    Neg,
    Program,
    require_batched,
)

#: Bumped whenever emitted code changes shape; part of the artifact key.
#: numpy-6: ``guard`` takes no tile grouping (every tier runs tiles in
#: ascending id; a stale ``numpy-5`` guard takes one more argument).
EMITTER_VERSION = "numpy-6"

#: Appended to the artifact key when the sanitizer prologue is emitted,
#: so guarded and unguarded modules never collide in the cache.
SANITIZE_TAG = "san1"


def _render(expr: Expr, direct: Optional[str], via: Dict[str, str]) -> str:
    """Render an expression; ``direct`` is the subscript text for direct
    loads (``None`` inside interaction loops, whose phases only see the
    endpoint arrays) and ``via`` maps an index-array name to the
    subscript text of loads through it."""
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Load):
        if not expr.index.direct:
            return f"A_{expr.array}[{via[expr.index.via]}]"
        if direct is None:
            raise ValidationError(
                f"interaction loops may address {expr.array!r} only "
                "through an index array"
            )
        return f"A_{expr.array}[{direct}]"
    if isinstance(expr, Neg):
        return f"(-{_render(expr.operand, direct, via)})"
    if isinstance(expr, BinOp):
        left = _render(expr.left, direct, via)
        right = _render(expr.right, direct, via)
        return f"({left} {expr.op} {right})"
    raise TypeError(f"unknown expression {expr!r}")


def _emit_arrays(w: SourceWriter, program: Program) -> None:
    for name in program.data_arrays:
        w.line(f"A_{name} = arrays[{name!r}]")


def _emit_phase(w: SourceWriter, program: Program, pos: int) -> str:
    """Emit loop ``pos``'s phase functions; returns its ``PHASES`` entry."""
    loop: LoopIR = program.loops[pos]
    w.line(f"# {loop.label} ({loop.domain})")
    if loop.domain == "nodes":
        with w.block(f"def _apply_{pos}(arrays, iters):"):
            _emit_arrays(w, program)
            for stmt in loop.stmts:
                inc = _render(stmt.increment, "iters", {})
                w.line(f"A_{stmt.array}[iters] += {inc}")
        w.line()
        w.line()
        return f"KernelPhase('nodes', apply=_apply_{pos})"
    gc = loop.fissioned
    with w.block(f"def _gather_{pos}(arrays, l, r):"):
        _emit_arrays(w, program)
        payload = _render(gc.payload, None, {"left": "l", "right": "r"})
        w.line(f"return {payload}")
    w.line()
    w.line()
    with w.block(f"def _commit_{pos}(arrays, l, r, g):"):
        _emit_arrays(w, program)
        for commit in gc.commits:
            end = {"left": "l", "right": "r"}[commit.via]
            val = "g" if commit.sign > 0 else "-g"
            w.line(f"np.add.at(A_{commit.array}, {end}, {val})")
    w.line()
    w.line()
    return f"KernelPhase('inters', gather=_gather_{pos}, commit=_commit_{pos})"


def _emit_guard(w: SourceWriter, program: Program) -> None:
    """The sanitizer prologue — the run-time discharge of the verifier's
    assumed facts (index-array-range, tile-partition): one
    vectorized range scan per index source, raising the typed trap
    *before* any data array is touched (so a corrupted dataset leaves
    state unmodified).  A range-form loop reads no iteration array (the
    driver slices by its offsets, which clips), so only index-form loops
    are scanned."""
    with w.block("def _guard(name, values, bound):"):
        w.line("values = np.asarray(values)")
        w.line("_bad = np.flatnonzero((values < 0) | (values >= bound))")
        with w.block("if _bad.size:"):
            w.line("_pos = int(_bad[0])")
            w.line(
                "raise ExecutorBoundsError("
                "f'{name}[{_pos}] = {int(values[_pos])} outside [0, {bound})',"
                " array=name, bound=int(bound), stage='sanitizer',"
                " indices=[int(_i) for _i in _bad[:5]])"
            )
    w.line()
    w.line()
    labels = "".join(f"{loop.label!r}, " for loop in program.loops)
    extents = "".join(
        "_num_nodes, " if loop.domain == "nodes" else "len(left), "
        for loop in program.loops
    )
    with w.block("def guard(arrays, left, right, schedule):"):
        w.line(f"_num_nodes = len(arrays[{program.data_arrays[0]!r}])")
        w.line("_guard('left', left, _num_nodes)")
        w.line("_guard('right', right, _num_nodes)")
        with w.block(
            "for _loop, _label, _bound in zip("
            f"schedule.loops, ({labels}), ({extents})):"
        ):
            with w.block("if not _loop.is_range:"):
                w.line("_guard(f'schedule[{_label}]', _loop.flat, _bound)")
    w.line()
    w.line()


def emit_numpy(program: Program, sanitize: bool = False) -> str:
    """Source of the NumPy phase-table module for a rewritten program.

    With ``sanitize`` the module carries ``guard``: a masked range
    pre-check of ``left``/``right`` and every index-form loop's
    iterations that raises :class:`~repro.errors.ExecutorBoundsError`
    before any data array is read or written; the phases are unchanged,
    so valid datasets stay bit-identical.  A program with a scalar loop
    is a :class:`~repro.errors.LegalityError`."""
    require_batched(program)
    w = SourceWriter()
    w.line(f'"""NumPy phase table for {program.kernel_name!r} '
           '(generated by repro.lowering; do not edit)."""')
    w.line("import numpy as np")
    if sanitize:
        w.line("from repro.errors import ExecutorBoundsError")
    w.line("from repro.lowering.schedule import KernelPhase")
    w.line()
    w.line()
    if sanitize:
        _emit_guard(w, program)
    entries = [
        _emit_phase(w, program, pos) for pos in range(len(program.loops))
    ]
    with w.block("PHASES = ["):
        for entry in entries:
            w.line(f"{entry},")
    w.line("]")
    return w.source()


__all__ = ["EMITTER_VERSION", "SANITIZE_TAG", "emit_numpy"]
