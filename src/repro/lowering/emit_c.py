"""Emit a C executor from the rewritten loop-nest IR.

One translation unit per program, one exported function, ``run_tiled``:
a *phase table plus drivers*, the C analogue of
:mod:`repro.lowering.schedule`'s Python side.  (An untiled executor is
this unit under the trivial schedule — one tile, every loop in range
form — not another unit; see :mod:`repro.lowering.executor`.)  Per
kernel loop its phase bodies — node ``apply``, fissioned ``gather`` +
``commit``, scalar ``apply`` — are rendered exactly once, as functions
of ``(context, tile)``.  The *wave loop* over them is
:func:`~repro.lowering.schedule.run_wave_phases` in C: per wave, per
loop, every gather of the wave, then per tile **in the wave's order**
every commit pass.  When the program is counter-schedulable (a property
of the rewritten program:
:func:`repro.analysis.irverify.counter_schedule_obligations` is empty)
the unit also carries the *counter pool* — a pthread work-stealing
scheduler whose three per-tile stages are compositions of the same
phase bodies.  Which driver runs is decided per call, not per build:
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
- the commit order, once: ``wave_tiles`` (concatenated tile ids, waves
  outermost) + ``wave_off`` (``num_waves + 1`` entries);
- the counter graph ``indegree`` / ``succ_off`` / ``succ`` (all
  ``NULL`` under ``scheduler="wave"``), ``num_tiles`` and
  ``num_threads``.

``num_threads <= 1``, one tile, no graph, or a failed allocation run
the wave loop; otherwise the pool, which commits in ``wave_tiles``
order and so stays bit-identical at any thread count.

Bit-identity with the library executor comes from emitting the *same
operation sequence* ``numpy`` performs, not from tolerances:

* a vectorized node update ``x += e`` is per-element
  ``x[i] = x[i] + e[i]`` in index order;
* ``np.add.at(a, idx, g)`` is per-element ``a[idx[j]] += g[j]`` in
  ``j`` order, one full pass per commit — which is exactly what the
  fissioned gather/commit phases below do (payload materialized into
  ``scratch`` at the global CSR position first, then one commit pass
  per statement).

Float constants are emitted with Python ``repr`` (shortest round-trip
decimal); C's correctly-rounded parse recovers the identical binary64.
The ``-ffp-contract=off`` flag (see :mod:`repro.lowering.toolchain`)
keeps the compiler from fusing the emitted ``a*b + c`` shapes.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.codegen.emit import SourceWriter
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
#: c-3: one tiled translation unit (phase functions + wave loop + counter
#: pool behind one ``run_tiled``); a stale ``c-2`` object has another ABI.
EMITTER_VERSION = "c-3"

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
GUARD_WAVES = 100
GUARD_SUCC = 101


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


def _emit_inter_scalar_body(w: SourceWriter, loop: LoopIR, ivar: str) -> None:
    via = _idx_via(ivar)
    for stmt in loop.stmts:
        target = f"{stmt.array}[{via[stmt.index.via]}]"
        inc = _render(stmt.increment, ivar, via)
        w.line(f"{target} = {target} + {inc};")


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


#: A phase body or a pool stage: inlined into every driver that calls it.
_TILE_FN = "static inline __attribute__((always_inline)) void"


def _emit_phases(w: SourceWriter, program: Program) -> List[List[str]]:
    """The phase table in C: per kernel loop its phase bodies, each a
    function of ``(context, tile)`` rendered once through
    :func:`_tile_iters`.  Returns, per loop, the function names in the
    order a wave runs them (``apply``, or ``gather`` then ``commit`` —
    one commit function runs every commit pass of its tile)."""
    table: List[List[str]] = []
    for pos, loop in enumerate(program.loops):
        ivar = loop.index_var
        if loop.domain == "nodes":
            phases = {"apply": [lambda k: _emit_node_body(w, loop, ivar)]}
        elif loop.fissioned is not None:
            gc = loop.fissioned
            payload = _render(gc.payload, ivar, _idx_via(ivar))
            # The payload is keyed by the global CSR position: tile slots
            # are disjoint, so concurrent gathers never race on scratch.
            phases = {
                "gather": [lambda k: w.line(f"scratch[{k}] = {payload};")],
                "commit": [
                    lambda k, commit=commit: w.line(
                        _commit_stmt(commit, ivar, f"scratch[{k}]")
                    )
                    for commit in gc.commits
                ],
            }
        else:
            phases = {
                "apply": [lambda k: _emit_inter_scalar_body(w, loop, ivar)]
            }
        names = []
        for phase, bodies in phases.items():
            names.append(f"_{phase}_{pos}")
            w.line(f"/* {loop.label} ({loop.domain}) {phase} */")
            with w.block(
                f"{_TILE_FN} {names[-1]}(const _ctx_t *c, int64_t _t) {{"
            ):
                # Local aliases so the bodies read as plain loops over the
                # arrays.  Not every phase touches every array; the casts
                # silence -Wunused.
                for name in program.data_arrays:
                    w.line(f"double *{name} = c->{name};")
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
        table.append(names)
    return table


def _emit_wave_step(
    w: SourceWriter, program: Program, table: List[List[str]]
) -> None:
    """One time step of the wave driver: per wave, per loop, each phase
    across the wave's tiles in the wave's order — so all of a wave's
    gathers precede its commits, and a tile's commit passes run together
    at the tile's turn."""
    with w.block(
        "static void _wave_step(const _ctx_t *c, const int64_t *wave_tiles, "
        "const int64_t *wave_off, int64_t num_waves) {"
    ):
        with w.block("for (int64_t _w = 0; _w < num_waves; ++_w) {"):
            for loop, names in zip(program.loops, table):
                w.line(f"/* {loop.label} ({loop.domain}) */")
                for name in names:
                    with w.block(
                        "for (int64_t _g = wave_off[_w]; "
                        "_g < wave_off[_w + 1]; ++_g) {"
                    ):
                        w.line(f"{name}(c, wave_tiles[_g]);")
                    w.line("}")
        w.line("}")
    w.line("}")


def _emit_stages(
    w: SourceWriter, program: Program, table: List[List[str]]
) -> None:
    """The pool's three per-tile stages as compositions of the phase
    bodies: node loops before the interaction loop run in the gather
    stage, the buffered payload is committed at the tile's turn, node
    loops after it run in the post stage.  (Counter-schedulable programs
    have exactly one interaction loop, fissioned.)"""
    ip = next(
        pos for pos, loop in enumerate(program.loops) if loop.domain != "nodes"
    )
    gather, commit = table[ip]
    stages = {
        "gather": [n for names in table[:ip] for n in names] + [gather],
        "commit": [commit],
        "post": [n for names in table[ip + 1:] for n in names],
    }
    for stage, names in stages.items():
        with w.block(
            f"{_TILE_FN} _stage_{stage}(const _ctx_t *c, int64_t _t) {{"
        ):
            w.line("(void)c; (void)_t;")
            for name in names:
                w.line(f"{name}(c, _t);")
        w.line("}")
        w.line()


def _emit_scheduler_runtime(w: SourceWriter) -> None:
    """The kernel-independent pthread scheduler scaffold.

    One mutex + condvar guard all shared state (per-worker deques,
    counters, gathered flags, the commit cursor); stage bodies run
    outside the lock.  Workers pop their own deque LIFO and steal FIFO
    from round-robin victims.  The commit token (``committing``) makes
    exactly one worker drain commits in ``order``; whoever finishes a
    gather and finds the token free takes duty, so commits chase the
    gather frontier without waiting for a scheduler tick.  Each tile
    enters a deque at most twice (gather, post), so ``2 * num_tiles``
    slots per worker never overflow and indices only grow — no ring.
    """
    with w.block("typedef struct {"):
        w.line("const _ctx_t *ctx;")
        w.line("int64_t num_tiles;")
        w.line("int64_t num_threads;")
        w.line("const int64_t *order;")
        w.line("const int64_t *succ_off;")
        w.line("const int64_t *succ;")
        w.line("int64_t *counters;")
        w.line("unsigned char *gathered;")
        w.line("int64_t commit_next;")
        w.line("int64_t completed;")
        w.line("int64_t committing;")
        w.line("int64_t **deq;")
        w.line("int64_t *deq_head;")
        w.line("int64_t *deq_tail;")
        w.line("pthread_mutex_t m;")
        w.line("pthread_cond_t cv;")
    w.line("} _sched_t;")
    w.line()
    with w.block("static void _push(_sched_t *s, int64_t w, int64_t task) {"):
        w.line("s->deq[w][s->deq_tail[w]++] = task;")
    w.line("}")
    w.line()
    with w.block("static int64_t _take(_sched_t *s, int64_t w) {"):
        with w.block("if (s->deq_tail[w] > s->deq_head[w]) {"):
            w.line("return s->deq[w][--s->deq_tail[w]];")
        w.line("}")
        with w.block("for (int64_t _i = 1; _i < s->num_threads; ++_i) {"):
            w.line("int64_t _v = (w + _i) % s->num_threads;")
            with w.block("if (s->deq_tail[_v] > s->deq_head[_v]) {"):
                w.line("return s->deq[_v][s->deq_head[_v]++];")
            w.line("}")
        w.line("}")
        w.line("return -2;")
    w.line("}")
    w.line()
    with w.block("static int _commit_ready(_sched_t *s) {"):
        w.line(
            "return s->commit_next < s->num_tiles && "
            "s->gathered[s->order[s->commit_next]];"
        )
    w.line("}")
    w.line()
    with w.block("static void _drain(_sched_t *s, int64_t w) {"):
        with w.block("for (;;) {"):
            w.line("pthread_mutex_lock(&s->m);")
            with w.block("if (!_commit_ready(s)) {"):
                w.line("s->committing = 0;")
                w.line("pthread_cond_broadcast(&s->cv);")
                w.line("pthread_mutex_unlock(&s->m);")
                w.line("return;")
            w.line("}")
            w.line("int64_t _t = s->order[s->commit_next];")
            w.line("pthread_mutex_unlock(&s->m);")
            w.line("_stage_commit(s->ctx, _t);")
            w.line("pthread_mutex_lock(&s->m);")
            w.line("s->commit_next += 1;")
            w.line("_push(s, w, _t + s->num_tiles);")
            w.line("pthread_cond_broadcast(&s->cv);")
            w.line("pthread_mutex_unlock(&s->m);")
        w.line("}")
    w.line("}")
    w.line()
    with w.block("typedef struct {"):
        w.line("_sched_t *s;")
        w.line("int64_t wid;")
    w.line("} _worker_arg_t;")
    w.line()
    with w.block("static void *_worker(void *argp) {"):
        w.line("_worker_arg_t *arg = (_worker_arg_t *)argp;")
        w.line("_sched_t *s = arg->s;")
        w.line("int64_t w = arg->wid;")
        with w.block("for (;;) {"):
            w.line("int64_t task;")
            w.line("pthread_mutex_lock(&s->m);")
            with w.block("for (;;) {"):
                with w.block("if (s->completed == s->num_tiles) {"):
                    w.line("pthread_mutex_unlock(&s->m);")
                    w.line("return 0;")
                w.line("}")
                w.line("task = _take(s, w);")
                w.line("if (task != -2) break;")
                with w.block("if (!s->committing && _commit_ready(s)) {"):
                    w.line("s->committing = 1;")
                    w.line("task = -1;")
                    w.line("break;")
                w.line("}")
                w.line("pthread_cond_wait(&s->cv, &s->m);")
            w.line("}")
            w.line("pthread_mutex_unlock(&s->m);")
            with w.block("if (task == -1) {"):
                w.line("_drain(s, w);")
                w.line("continue;")
            w.line("}")
            with w.block("if (task < s->num_tiles) {"):
                w.line("_stage_gather(s->ctx, task);")
                w.line("int _duty = 0;")
                w.line("pthread_mutex_lock(&s->m);")
                w.line("s->gathered[task] = 1;")
                with w.block("if (!s->committing && _commit_ready(s)) {"):
                    w.line("s->committing = 1;")
                    w.line("_duty = 1;")
                with w.block("} else {"):
                    w.line("pthread_cond_broadcast(&s->cv);")
                w.line("}")
                w.line("pthread_mutex_unlock(&s->m);")
                w.line("if (_duty) _drain(s, w);")
            with w.block("} else {"):
                w.line("int64_t _t = task - s->num_tiles;")
                w.line("_stage_post(s->ctx, _t);")
                w.line("pthread_mutex_lock(&s->m);")
                with w.block(
                    "for (int64_t _e = s->succ_off[_t]; "
                    "_e < s->succ_off[_t + 1]; ++_e) {"
                ):
                    w.line("int64_t _n = s->succ[_e];")
                    w.line("s->counters[_n] -= 1;")
                    w.line("if (s->counters[_n] == 0) _push(s, w, _n);")
                w.line("}")
                w.line("s->completed += 1;")
                w.line("pthread_cond_broadcast(&s->cv);")
                w.line("pthread_mutex_unlock(&s->m);")
            w.line("}")
        w.line("}")
    w.line("}")


def _emit_pool(w: SourceWriter) -> None:
    """``_run_pool``: every time step under the counter scheduler.
    Returns 0 — having touched nothing — when a scheduler allocation
    fails, so the caller degrades to the wave loop rather than fail the
    run."""
    with w.block(
        "static int _run_pool(const _ctx_t *ctx, const int64_t *wave_tiles, "
        "const int64_t *wave_off, int64_t num_waves, "
        "const int64_t *indegree, const int64_t *succ_off, "
        "const int64_t *succ, int64_t num_tiles, int64_t num_threads, "
        "int64_t num_steps) {"
    ):
        w.line("_sched_t s;")
        w.line("s.ctx = ctx;")
        w.line("s.num_tiles = num_tiles;")
        w.line("s.num_threads = num_threads;")
        w.line("s.order = wave_tiles;")
        w.line("s.succ_off = succ_off;")
        w.line("s.succ = succ;")
        w.line(
            "s.counters = (int64_t *)malloc("
            "(size_t)num_tiles * sizeof(int64_t));"
        )
        w.line("s.gathered = (unsigned char *)malloc((size_t)num_tiles);")
        w.line(
            "s.deq = (int64_t **)calloc("
            "(size_t)num_threads, sizeof(int64_t *));"
        )
        w.line(
            "s.deq_head = (int64_t *)malloc("
            "(size_t)num_threads * sizeof(int64_t));"
        )
        w.line(
            "s.deq_tail = (int64_t *)malloc("
            "(size_t)num_threads * sizeof(int64_t));"
        )
        w.line(
            "pthread_t *threads = (pthread_t *)malloc("
            "(size_t)num_threads * sizeof(pthread_t));"
        )
        w.line(
            "_worker_arg_t *args = (_worker_arg_t *)malloc("
            "(size_t)num_threads * sizeof(_worker_arg_t));"
        )
        w.line(
            "int _ok = s.counters && s.gathered && s.deq && "
            "s.deq_head && s.deq_tail && threads && args;"
        )
        with w.block(
            "for (int64_t _w = 0; _ok && _w < num_threads; ++_w) {"
        ):
            w.line(
                "s.deq[_w] = (int64_t *)malloc("
                "(size_t)(2 * num_tiles + 1) * sizeof(int64_t));"
            )
            w.line("if (!s.deq[_w]) _ok = 0;")
        w.line("}")
        with w.block("if (_ok) {"):
            w.line("pthread_mutex_init(&s.m, 0);")
            w.line("pthread_cond_init(&s.cv, 0);")
            with w.block(
                "for (int64_t _step = 0; _step < num_steps; ++_step) {"
            ):
                with w.block("for (int64_t _t = 0; _t < num_tiles; ++_t) {"):
                    w.line("s.counters[_t] = indegree[_t];")
                    w.line("s.gathered[_t] = 0;")
                w.line("}")
                w.line("s.commit_next = 0;")
                w.line("s.completed = 0;")
                w.line("s.committing = 0;")
                with w.block("for (int64_t _w = 0; _w < num_threads; ++_w) {"):
                    w.line("s.deq_head[_w] = 0;")
                    w.line("s.deq_tail[_w] = 0;")
                w.line("}")
                w.line("int64_t _seeded = 0;")
                with w.block("for (int64_t _t = 0; _t < num_tiles; ++_t) {"):
                    with w.block("if (indegree[_t] == 0) {"):
                        w.line("_push(&s, _seeded % num_threads, _t);")
                        w.line("_seeded += 1;")
                    w.line("}")
                w.line("}")
                # A full barrier between steps: workers are joined per step,
                # which also publishes every write before the next spawn.
                with w.block("for (int64_t _w = 0; _w < num_threads; ++_w) {"):
                    w.line("args[_w].s = &s;")
                    w.line("args[_w].wid = _w;")
                    with w.block(
                        "if (pthread_create(&threads[_w], 0, _worker, "
                        "&args[_w])) {"
                    ):
                        # Spawn failure: this worker simply doesn't join the
                        # pool; mark it so join skips it.  The protocol only
                        # needs one live worker to finish every tile.
                        w.line("args[_w].wid = -1;")
                    w.line("}")
                w.line("}")
                w.line("int64_t _live = 0;")
                with w.block("for (int64_t _w = 0; _w < num_threads; ++_w) {"):
                    w.line("if (args[_w].wid >= 0) { "
                           "pthread_join(threads[_w], 0); _live += 1; }")
                w.line("}")
                # Every spawn failed, so nothing of this step ran: run it
                # on this thread.
                w.line(
                    "if (_live == 0) _wave_step(ctx, wave_tiles, wave_off, "
                    "num_waves);"
                )
            w.line("}")
            w.line("pthread_mutex_destroy(&s.m);")
            w.line("pthread_cond_destroy(&s.cv);")
        w.line("}")
        with w.block(
            "for (int64_t _w = 0; s.deq && _w < num_threads; ++_w) {"
        ):
            w.line("free(s.deq[_w]);")
        w.line("}")
        w.line("free(s.counters); free(s.gathered); free(s.deq);")
        w.line("free(s.deq_head); free(s.deq_tail);")
        w.line("free(threads); free(args);")
        w.line("return _ok;")
    w.line("}")


def emit_c_tiled(program: Program, sanitize: bool = False) -> str:
    """C source of the tiled executor: the phase functions, the wave
    loop and — for a counter-schedulable program — the counter pool,
    behind the one entry point ``run_tiled`` (see the module docstring
    for its parameters and for which driver a call runs).

    The sanitized variant gains ``int64_t *err`` and, before the first
    step, range-scans every index source the unit dereferences: per loop
    the iteration array (or, in range form, the tile offsets), the wave
    tile ids, the successor ids when a graph is passed, and
    ``left``/``right``.  On the first violation it records (guard code,
    position, value, bound) in ``err`` and returns before any data array
    is touched; the compute body is unchanged, so valid datasets stay
    bit-identical."""
    from repro.analysis.irverify import counter_schedule_obligations

    pool = not counter_schedule_obligations(program)
    w = SourceWriter()
    w.line(f"/* Tiled C executor for '{program.kernel_name}' "
           "(generated by repro.lowering; do not edit). */")
    for header in ("stdint.h", *(("stdlib.h", "pthread.h") if pool else ())):
        w.line(f"#include <{header}>")
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
    _emit_wave_step(w, program, table)
    w.line()
    if pool:
        _emit_stages(w, program, table)
        _emit_scheduler_runtime(w)
        w.line()
        _emit_pool(w)
        w.line()
    params = operands + [
        "const int64_t *wave_tiles",
        "const int64_t *wave_off",
        "int64_t num_waves",
        "const int64_t *indegree",
        "const int64_t *succ_off",
        "const int64_t *succ",
        "int64_t num_tiles",
        "int64_t num_threads",
        "double *scratch",
    ]
    if sanitize:
        params.append("int64_t *err")
    with w.block(f"void run_tiled({', '.join(params)}) {{"):
        if sanitize:
            _emit_guard_scans(w, program)
            w.line(
                "if (_guard(wave_tiles, wave_off[num_waves], num_tiles, "
                f"{GUARD_WAVES}, err)) return;"
            )
            if pool:
                w.line(
                    "if (succ && _guard(succ, succ_off[num_tiles], "
                    f"num_tiles, {GUARD_SUCC}, err)) return;"
                )
        w.line("_ctx_t ctx;")
        for field in ctx_fields:
            name = field.rpartition("*")[2]
            w.line(f"ctx.{name} = {name};")
        w.line("(void)num_nodes; (void)num_inter; (void)num_tiles;")
        w.line("(void)num_threads; (void)indegree; (void)succ_off;")
        w.line("(void)succ;")
        if pool:
            w.line(
                "if (num_threads > 1 && num_tiles > 1 && indegree && "
                "_run_pool(&ctx, wave_tiles, wave_off, num_waves, indegree, "
                "succ_off, succ, num_tiles, num_threads, num_steps)) return;"
            )
        with w.block("for (int64_t _step = 0; _step < num_steps; ++_step) {"):
            w.line("_wave_step(&ctx, wave_tiles, wave_off, num_waves);")
        w.line("}")
    w.line("}")
    return w.source()


__all__ = [
    "EMITTER_VERSION",
    "GUARD_LEFT",
    "GUARD_OFFSETS_BASE",
    "GUARD_RIGHT",
    "GUARD_SCHEDULE_BASE",
    "GUARD_SUCC",
    "GUARD_WAVES",
    "SANITIZE_TAG",
    "emit_c_tiled",
]
