"""Emit a C executor from the rewritten loop-nest IR.

One translation unit per program, one exported function, ``run_tiled``:
a *phase table plus its driver*, the C analogue of
:mod:`repro.lowering.schedule`'s Python side.  (An untiled executor is
this unit under the trivial schedule — one tile, every loop in range
form — not another unit; see :mod:`repro.lowering.executor`.)  Per
kernel loop its phase body — node ``apply``, interaction ``inters`` (the
gather fused into the first commit pass, then the other commit passes)
— is rendered exactly once, as a function of ``(context, tile)``; a
program that still holds a scalar loop, or whose payload reads an array
its commits write, is refused before any source is written.  The *tile
loop* over them is :func:`~repro.lowering.schedule.tile_walk` in C: per
tile in ascending id, each loop's phase in program order.
``run_tiled`` takes, after the operands (data arrays, ``left``,
``right``, ``num_nodes``, ``num_inter``, ``num_steps``),

- per loop ``p`` the marshalled tile schedule (``iters_p``
  concatenated iterations + ``off_p`` tile offsets, ``num_tiles + 1``
  entries — pointers into the
  :class:`~repro.transforms.tile_schedule.TileSchedule` built at bind
  time).  ``iters_p`` may be ``NULL``: the loop is then in *range
  form* — tile ``t`` runs the contiguous iterations ``off_p[t] ..
  off_p[t + 1] - 1``, Figure 14's plain blocked loop over tile-packed
  data — and every phase body is emitted in both forms under one
  ``if (iters_p)``;
- ``num_tiles`` and the ``scratch`` payload buffer.

Bit-identity with the ``numpy`` tier comes from emitting the *same
operation sequence* ``numpy`` performs, not from tolerances:

* a vectorized node update ``x += e`` is per-element
  ``x[i] = x[i] + e[i]`` in index order;
* ``np.add.at(a, idx, g)`` is per-element ``a[idx[j]] += g[j]`` in
  ``j`` order, one full pass per commit.  The first pass also gathers:
  per iteration it evaluates the payload once, stores it into
  ``scratch`` at the global CSR position and adds it into the first
  commit's array; every later commit pass reads ``scratch``.  Sharing
  the pass moves only the payload's loads, and the payload reads no
  array a commit writes (checked before emission), so each reduced
  array still receives the same additions in the same ``j`` order.
  The second commit is not fused too: a node that is both a ``left``
  and a ``right`` endpoint would then receive the two commits'
  additions interleaved, not array by array.

Float constants are emitted with Python ``repr`` (shortest round-trip
decimal); C's correctly-rounded parse recovers the identical binary64.
The ``-ffp-contract=off`` flag (see :mod:`repro.lowering.toolchain`)
keeps the compiler from fusing the emitted ``a*b + c`` shapes.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.codegen.emit import SourceWriter
from repro.errors import LegalityError
from repro.lowering.ir import (
    BinOp,
    Const,
    Expr,
    Load,
    LoopIR,
    Neg,
    Program,
    expr_loads,
    require_batched,
)

#: Bumped whenever emitted code changes shape; part of the artifact key.
#: c-5: one loop order — tiles in ascending id — behind ``run_tiled``;
#: no tile-grouping parameters (a stale ``c-4`` object has another ABI).
#: c-6: the gather shares the first commit's pass (same ABI, one pass
#: fewer per interaction loop).
EMITTER_VERSION = "c-6"

#: Appended to the artifact key when the sanitizer guard is emitted, so
#: guarded and unguarded shared objects never collide in the cache.
SANITIZE_TAG = "san1"

#: ``err[0]`` codes of the sanitized executors (0 = clean run).  The
#: runner maps these back to index-source names when raising the typed
#: :class:`~repro.errors.ExecutorBoundsError`.
GUARD_LEFT = 1
GUARD_RIGHT = 2
GUARD_SCHEDULE_BASE = 10  # + loop position
GUARD_OFFSETS_BASE = 50  # + loop position (range form: no iters to scan)


def _emit_guard_fn(w: SourceWriter) -> None:
    """The range scan the sanitized entry points call first.  On the
    first out-of-range value it records (code, position, value, bound)
    in ``err`` and the caller returns before touching any data array —
    so a corrupted dataset leaves every array bit-untouched."""
    with w.block(
        "static int64_t _guard(const int64_t *v, int64_t n, int64_t bound, "
        "int64_t code, int64_t *err) {"
    ):
        with w.block("for (int64_t _i = 0; _i < n; ++_i) {"):
            with w.block("if (v[_i] < 0 || v[_i] >= bound) {"):
                w.line("err[0] = code;")
                w.line("err[1] = _i;")
                w.line("err[2] = v[_i];")
                w.line("err[3] = bound;")
                w.line("return 1;")
            w.line("}")
        w.line("}")
        w.line("return 0;")
    w.line("}")


def _emit_offsets_guard_fn(w: SourceWriter) -> None:
    """The scan a range-form loop gets instead of :func:`_emit_guard_fn`'s:
    with no iteration array to check, the tile offsets *are* the index
    source — they must start at 0, never decrease, and end at the loop
    extent, or a tile would run iterations outside ``[0, extent)``."""
    with w.block(
        "static int64_t _guard_offsets(const int64_t *off, int64_t n, "
        "int64_t extent, int64_t code, int64_t *err) {"
    ):
        w.line("int64_t _prev = 0;")
        with w.block("for (int64_t _i = 0; _i <= n; ++_i) {"):
            w.line("int64_t _lo = (_i == n) ? extent : _prev;")
            w.line("int64_t _hi = (_i == 0) ? 0 : extent;")
            with w.block("if (off[_i] < _lo || off[_i] > _hi) {"):
                w.line("err[0] = code;")
                w.line("err[1] = _i;")
                w.line("err[2] = off[_i];")
                w.line("err[3] = extent + 1;")
                w.line("return 1;")
            w.line("}")
            w.line("_prev = off[_i];")
        w.line("}")
        w.line("return 0;")
    w.line("}")


def _render(expr: Expr, direct: str, via: Dict[str, str]) -> str:
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Load):
        if expr.index.direct:
            return f"{expr.array}[{direct}]"
        return f"{expr.array}[{via[expr.index.via]}]"
    if isinstance(expr, Neg):
        return f"(-{_render(expr.operand, direct, via)})"
    if isinstance(expr, BinOp):
        left = _render(expr.left, direct, via)
        right = _render(expr.right, direct, via)
        return f"({left} {expr.op} {right})"
    raise TypeError(f"unknown expression {expr!r}")


def _idx_via(ivar: str) -> Dict[str, str]:
    return {"left": f"left[{ivar}]", "right": f"right[{ivar}]"}


def _emit_node_body(w: SourceWriter, loop: LoopIR, ivar: str) -> None:
    via = _idx_via(ivar)
    for stmt in loop.stmts:
        inc = _render(stmt.increment, ivar, via)
        w.line(f"{stmt.array}[{ivar}] = {stmt.array}[{ivar}] + {inc};")


def _commit_stmt(commit, ivar: str, payload: str) -> str:
    """``array[via[i]] += sign * payload`` as one explicit C assignment."""
    end = f"{commit.via}[{ivar}]"
    val = payload if commit.sign > 0 else f"(-{payload})"
    return f"{commit.array}[{end}] = {commit.array}[{end}] + {val};"


def _tile_iters(
    w: SourceWriter, pos: int, ivar: str, body: Callable[[str], None]
) -> None:
    """Tile ``_t``'s iterations of loop ``pos``, in both schedule forms.
    Index form walks the CSR positions ``_k`` and loads ``ivar`` from
    ``iters``; range form (``iters == NULL``) is the plain blocked loop,
    where the position *is* the iteration.  ``body(k)`` emits the loop
    body given the expression of the global CSR position; it is called
    once per form, before this returns."""
    off = f"off{pos}"
    with w.block(f"if (iters{pos}) {{"):
        with w.block(
            f"for (int64_t _k = {off}[_t]; _k < {off}[_t + 1]; ++_k) {{"
        ):
            w.line(f"int64_t {ivar} = iters{pos}[_k];")
            body("_k")
        w.line("}")
    with w.block("} else {"):
        with w.block(
            f"for (int64_t {ivar} = {off}[_t]; {ivar} < {off}[_t + 1]; "
            f"++{ivar}) {{"
        ):
            body(ivar)
        w.line("}")
    w.line("}")


def _operand_params(program: Program) -> List[str]:
    """The parameters the entry point opens with: the operands, then the
    marshalled schedule (a loop's ``iters`` is ``NULL`` in range form)."""
    params = [f"double *{name}" for name in program.data_arrays] + [
        "const int64_t *left",
        "const int64_t *right",
        "int64_t num_nodes",
        "int64_t num_inter",
        "int64_t num_steps",
    ]
    for pos in range(len(program.loops)):
        params += [f"const int64_t *iters{pos}", f"const int64_t *off{pos}"]
    return params


def _emit_guard_scans(w: SourceWriter, program: Program) -> None:
    """The sanitized entry point's opening: clear ``err``, scan
    ``left``/``right`` and per loop its iteration array, or in range
    form its tile offsets."""
    w.line("err[0] = 0;")
    w.line(
        f"if (_guard(left, num_inter, num_nodes, {GUARD_LEFT}, err)) return;"
    )
    w.line(
        f"if (_guard(right, num_inter, num_nodes, {GUARD_RIGHT}, err)) "
        "return;"
    )
    for pos, loop in enumerate(program.loops):
        extent = "num_nodes" if loop.domain == "nodes" else "num_inter"
        with w.block(f"if (iters{pos}) {{"):
            w.line(
                f"if (_guard(iters{pos}, off{pos}[num_tiles], {extent}, "
                f"{GUARD_SCHEDULE_BASE + pos}, err)) return;"
            )
        with w.block("} else {"):
            w.line(
                f"if (_guard_offsets(off{pos}, num_tiles, {extent}, "
                f"{GUARD_OFFSETS_BASE + pos}, err)) return;"
            )
        w.line("}")


#: A phase body: inlined into the tile loop that calls it.
_TILE_FN = "static inline __attribute__((always_inline)) void"


def _require_pure_payloads(program: Program) -> None:
    """Refuse a fissioned loop whose payload loads an array one of its
    commits writes, before any source is written: the fused first pass
    evaluates the payload after earlier iterations' first-commit
    additions, which such a payload would read.  The fission pass never
    builds one; a hand-built program can."""
    for loop in program.loops:
        gc = loop.fissioned
        if gc is None:
            continue
        written = {commit.array for commit in gc.commits}
        clash = sorted(
            {load.array for load in expr_loads(gc.payload)} & written
        )
        if clash:
            raise LegalityError(
                f"executor {program.kernel_name!r}: loop {loop.label!r}'s "
                f"payload reads {clash}, which its commits write; the "
                "gather cannot share a commit's pass",
                stage="lowering",
            )


def _inters_bodies(
    w: SourceWriter, loop: LoopIR
) -> List[Callable[[str], None]]:
    """An interaction loop's passes: the gather fused into the first
    commit (the payload evaluated once into ``_g``, kept in ``scratch``
    for the later passes), then one pass per further commit."""
    ivar = loop.index_var
    gc = loop.fissioned
    payload = _render(gc.payload, ivar, _idx_via(ivar))
    first, *rest = gc.commits

    # The payload is keyed by the global CSR position, so one buffer
    # holds every tile's slots.
    def fused(k: str) -> None:
        w.line(f"double _g = {payload};")
        w.line(f"scratch[{k}] = _g;")
        w.line(_commit_stmt(first, ivar, "_g"))

    return [fused] + [
        lambda k, commit=commit: w.line(
            _commit_stmt(commit, ivar, f"scratch[{k}]")
        )
        for commit in rest
    ]


def _emit_phases(w: SourceWriter, program: Program) -> List[str]:
    """The phase table in C: per kernel loop one phase function of
    ``(context, tile)`` whose passes are each rendered once through
    :func:`_tile_iters` — a node loop's ``apply``, an interaction loop's
    ``inters`` (see :func:`_inters_bodies`).  Returns the function
    names in loop order."""
    table: List[str] = []
    for pos, loop in enumerate(program.loops):
        ivar = loop.index_var
        if loop.domain == "nodes":
            phase = "apply"
            bodies = [lambda k: _emit_node_body(w, loop, ivar)]
        else:
            phase = "inters"
            bodies = _inters_bodies(w, loop)
        name = f"_{phase}_{pos}"
        w.line(f"/* {loop.label} ({loop.domain}) */")
        with w.block(f"{_TILE_FN} {name}(const _ctx_t *c, int64_t _t) {{"):
            # Local aliases so the bodies read as plain loops over the
            # arrays.  Not every phase touches every array; the casts
            # silence -Wunused.
            for array in program.data_arrays:
                w.line(f"double *{array} = c->{array};")
            w.line("const int64_t *left = c->left;")
            w.line("const int64_t *right = c->right;")
            w.line("double *scratch = c->scratch;")
            w.line(f"const int64_t *iters{pos} = c->iters{pos};")
            w.line(f"const int64_t *off{pos} = c->off{pos};")
            voids = " ".join(f"(void){n};" for n in program.data_arrays)
            w.line(f"{voids} (void)left; (void)right; (void)scratch;")
            for body in bodies:
                _tile_iters(w, pos, ivar, body)
        w.line("}")
        w.line()
        table.append(name)
    return table


def _emit_step(w: SourceWriter, table: List[str]) -> None:
    """One time step of the tile loop: per tile in ascending id, each
    loop's phase function in program order."""
    with w.block(
        "static void _step(const _ctx_t *c, int64_t num_tiles) {"
    ):
        with w.block("for (int64_t _t = 0; _t < num_tiles; ++_t) {"):
            for name in table:
                w.line(f"{name}(c, _t);")
        w.line("}")
    w.line("}")


def emit_c_tiled(program: Program, sanitize: bool = False) -> str:
    """C source of the tiled executor: the phase functions and the tile
    loop behind the one entry point ``run_tiled`` (see the module
    docstring for its parameters).

    The sanitized variant gains ``int64_t *err`` and, before the first
    step, range-scans every index source the unit dereferences: per loop
    the iteration array (or, in range form, the tile offsets), and
    ``left``/``right``.  On the first violation it records
    (guard code, position, value, bound) in ``err`` and returns before
    any data array is touched; the compute body is unchanged, so valid
    datasets stay bit-identical.  A program with a scalar loop, or with
    a payload that reads an array its commits write, is a
    :class:`~repro.errors.LegalityError`."""
    require_batched(program)
    _require_pure_payloads(program)
    w = SourceWriter()
    w.line(f"/* Tiled C executor for '{program.kernel_name}' "
           "(generated by repro.lowering; do not edit). */")
    w.line("#include <stdint.h>")
    w.line()
    if sanitize:
        _emit_guard_fn(w)
        w.line()
        _emit_offsets_guard_fn(w)
        w.line()
    operands = _operand_params(program)
    # The phase functions' context: every pointer the entry point takes.
    ctx_fields = [p for p in operands if "*" in p] + ["double *scratch"]
    with w.block("typedef struct {"):
        for field in ctx_fields:
            w.line(f"{field};")
    w.line("} _ctx_t;")
    w.line()
    table = _emit_phases(w, program)
    _emit_step(w, table)
    w.line()
    params = operands + ["int64_t num_tiles", "double *scratch"]
    if sanitize:
        params.append("int64_t *err")
    with w.block(f"void run_tiled({', '.join(params)}) {{"):
        if sanitize:
            _emit_guard_scans(w, program)
        w.line("_ctx_t ctx;")
        for field in ctx_fields:
            name = field.rpartition("*")[2]
            w.line(f"ctx.{name} = {name};")
        w.line("(void)num_nodes; (void)num_inter;")
        with w.block("for (int64_t _s = 0; _s < num_steps; ++_s) {"):
            w.line("_step(&ctx, num_tiles);")
        w.line("}")
    w.line("}")
    return w.source()


__all__ = [
    "EMITTER_VERSION",
    "GUARD_LEFT",
    "GUARD_OFFSETS_BASE",
    "GUARD_RIGHT",
    "GUARD_SCHEDULE_BASE",
    "SANITIZE_TAG",
    "emit_c_tiled",
]
