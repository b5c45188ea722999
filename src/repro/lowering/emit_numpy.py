"""Emit a kernel's NumPy phase table from the rewritten loop-nest IR.

The emitted module is the compiled analogue of
:mod:`repro.kernels.executors` — ordinary Python over ``numpy`` whose
payload is ``PHASES``, one :class:`~repro.kernels.executors.KernelPhase`
per kernel loop, the same shape as the hand-written
:data:`~repro.kernels.executors.PHASE_FUNCTIONS` and **operation-
identical** to it:

* a vectorized node loop is ``apply(arrays, iters)``: the in-place
  update the step functions perform, over an iteration subset
  (``x[iters] += 0.01 * vx[iters] + 0.0005 * fx[iters]``);
* a fissioned interaction loop is ``gather(arrays, l, r)`` — one batched,
  pure evaluation of the payload over the endpoint arrays — plus
  ``commit(arrays, l, r, payload)``: one ``np.add.at`` per commit, in
  statement order — exactly the library's gather/commit sequence, so
  results are bit-identical;
* loops the pipeline left scalar become faithful Figure-13 scalar loops
  (the interpreter-speed rendering; ablation only) behind the same
  signatures: an unfissioned interaction loop gathers nothing and runs
  its interleaved statements in ``commit``, i.e. still at its tile's
  turn in the commit order.

The module holds no schedule: *how* the table runs — over which wave
groups — is decided by the wave driver of
:mod:`repro.lowering.schedule`, which serves this table and the
hand-written one alike.  The one entry point it does define,
``run(arrays, left, right, num_steps=1)``, is the untiled executor (the
paper's Figure 13): each phase once over its whole range per time step.
With ``sanitize`` the module also defines ``guard(...)``, the bounds
prologue ``run`` and the tiled drivers' entry call before any mutation.
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
)

#: Bumped whenever emitted code changes shape; part of the artifact key.
#: numpy-2: the module is a phase table (no tiled/dynamic entry points).
EMITTER_VERSION = "numpy-2"

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
            if loop.vector:
                for stmt in loop.stmts:
                    inc = _render(stmt.increment, "iters", {})
                    w.line(f"A_{stmt.array}[iters] += {inc}")
            else:
                ivar = loop.index_var
                with w.block(f"for {ivar} in iters:"):
                    for stmt in loop.stmts:
                        inc = _render(stmt.increment, ivar, {})
                        w.line(f"A_{stmt.array}[{ivar}] += {inc}")
        w.line()
        w.line()
        return f"KernelPhase('nodes', apply=_apply_{pos})"
    gc = loop.fissioned if loop.vector else None
    with w.block(f"def _gather_{pos}(arrays, l, r):"):
        if gc is None:
            w.line("return None")
        else:
            _emit_arrays(w, program)
            payload = _render(gc.payload, None, {"left": "l", "right": "r"})
            w.line(f"return {payload}")
    w.line()
    w.line()
    with w.block(f"def _commit_{pos}(arrays, l, r, g):"):
        _emit_arrays(w, program)
        if gc is None:
            # Scalar Figure-13 rendering (statements interleaved per
            # iteration).
            via = {"left": "l[_k]", "right": "r[_k]"}
            with w.block("for _k in range(len(l)):"):
                for stmt in loop.stmts:
                    target = f"A_{stmt.array}[{via[stmt.index.via]}]"
                    w.line(f"{target} += {_render(stmt.increment, None, via)}")
        else:
            for commit in gc.commits:
                end = {"left": "l", "right": "r"}[commit.via]
                val = "g" if commit.sign > 0 else "-g"
                w.line(f"np.add.at(A_{commit.array}, {end}, {val})")
    w.line()
    w.line()
    return f"KernelPhase('inters', gather=_gather_{pos}, commit=_commit_{pos})"


def _emit_guard(w: SourceWriter, program: Program) -> None:
    """The sanitizer prologue — the run-time discharge of the verifier's
    assumed facts (index-array-range, tile-partition, wave-cover): one
    vectorized range scan per index source, raising the typed trap
    *before* any data array is touched (so a corrupted dataset leaves
    state unmodified).  ``run`` passes the index arrays alone; the tiled
    drivers' entry adds the schedule, wave groups and counter DAG."""
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
    extents = ", ".join(
        "_num_nodes" if loop.domain == "nodes" else "len(left)"
        for loop in program.loops
    )
    with w.block(
        "def guard(arrays, left, right, schedule=None, wave_groups=None, "
        "dag=None):"
    ):
        w.line(f"_num_nodes = len(arrays[{program.data_arrays[0]!r}])")
        w.line("_guard('left', left, _num_nodes)")
        w.line("_guard('right', right, _num_nodes)")
        with w.block("if schedule is None:"):
            w.line("return")
        with w.block("for _t, _tile in enumerate(schedule):"):
            with w.block(f"for _pos, _bound in enumerate(({extents},)):"):
                w.line(
                    "_guard(f'schedule[{_t}][{_pos}]', _tile[_pos], _bound)"
                )
        with w.block("for _wv, _group in enumerate(wave_groups or ()):"):
            w.line("_guard(f'wave_groups[{_wv}]', _group, len(schedule))")
        with w.block("if dag is not None:"):
            w.line(
                "_guard('dag.succ_indices', dag.succ_indices, len(schedule))"
            )
            w.line("_guard('dag.order', dag.order, len(schedule))")
    w.line()
    w.line()


def emit_numpy(program: Program, sanitize: bool = False) -> str:
    """Source of the NumPy phase-table module for a rewritten program.

    With ``sanitize`` the module carries ``guard``: a masked range
    pre-check of ``left``/``right`` (and, when given, every tile-schedule
    iteration list, wave group and counter-DAG index array) that raises
    :class:`~repro.errors.ExecutorBoundsError` before any data array is
    read or written; the phases are unchanged, so valid datasets stay
    bit-identical."""
    w = SourceWriter()
    w.line(f'"""NumPy phase table for {program.kernel_name!r} '
           '(generated by repro.lowering; do not edit)."""')
    w.line("import numpy as np")
    if sanitize:
        w.line("from repro.errors import ExecutorBoundsError")
    w.line("from repro.kernels.executors import KernelPhase")
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
    w.line()
    w.line()
    with w.block("def run(arrays, left, right, num_steps=1):"):
        if sanitize:
            w.line("guard(arrays, left, right)")
        with w.block("for _step in range(num_steps):"):
            for pos, loop in enumerate(program.loops):
                if loop.domain != "nodes":
                    w.line(
                        f"_commit_{pos}(arrays, left, right, "
                        f"_gather_{pos}(arrays, left, right))"
                    )
                elif loop.vector:
                    w.line(f"_apply_{pos}(arrays, slice(None))")
                else:
                    first = program.data_arrays[0]
                    w.line(
                        f"_apply_{pos}(arrays, range(len(arrays[{first!r}])))"
                    )
        w.line("return arrays")
    return w.source()


__all__ = ["EMITTER_VERSION", "SANITIZE_TAG", "emit_numpy"]
