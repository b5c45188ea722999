"""Bind-time compilation and selection of executor backends.

Three backends implement the same executor contract:

* ``library`` — the hand-written NumPy step/phase tables of
  :mod:`repro.kernels.executors` (the default; zero compilation; the
  reference the identity suites compare against);
* ``numpy``  — the phase table :mod:`repro.lowering.emit_numpy` emits
  from the rewritten IR, exec'd at bind time;
* ``c``      — generated C from :mod:`repro.lowering.emit_c`, compiled
  to a shared object at bind time and driven through ``ctypes``.

The two Python tiers differ only in where their table comes from: a
tiled bind of either runs it under the wave driver of
:mod:`repro.lowering.schedule`.  The C tier's two entry points (``run``,
``run_tiled``) share one marshaller (:func:`_c_call`), and every tier
sits behind one entry (:func:`_entry`) that checks its outside input —
and is where a tile schedule becomes its one representation
(:class:`~repro.transforms.tile_schedule.TileSchedule`): the object
``TilingFunction.schedule()`` returns passes through after an O(1)
check and is handed to C by pointer; a hand-built list of tiles is
marshalled and fully checked on each call.

``scheduler`` is not part of what gets built: wave and dynamic binds of
one program share one artifact, and the name picks a driver at run time.
A dynamic call passes its counter DAG through the IRV006 gate and runs
the DAG's own commit order (:func:`~repro.lowering.schedule.
counter_schedule`, in :func:`_entry`, the same on every tier); the C
tier then hands ``run_tiled`` the counter graph and a worker count, and
the counter pool compiled into the unit takes over above one thread.
The Python tiers are level-synchronous under either name.

Selection follows the shared policy of :func:`repro.backends.resolve`
(argument > ``REPRO_EXECUTOR_BACKEND`` > default ``library``); asking
for ``c`` on a machine without a toolchain degrades to ``numpy`` with a
single :class:`~repro.backends.BackendFallbackWarning`.

Compiled artifacts (the generated ``.py`` source, the ``.c`` source,
and the built ``.so``) are content-addressed in the plan cache's
:class:`~repro.plancache.artifacts.ArtifactStore` under
:func:`artifact_key` — lowered-IR hash x pass config x emitter version
x toolchain fingerprint — so a warm bind is a file read + dlopen, not a
compile.  A per-process memo on top makes repeat binds free.

All backends are **bit-identical** (asserted by the compiled identity
suite): the callable returned by :func:`compile_executor` has the same
signature and the same floating-point behavior per backend.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import backends
from repro.errors import ExecutorBoundsError, LegalityError, ValidationError
from repro.lowering import toolchain
from repro.lowering.ir import Program, ir_hash, lower_kernel
from repro.lowering.passes import LoweringRewriter, PassConfig, RewriteState
from repro.transforms.tile_schedule import (
    CSRLists,
    as_tile_schedule,
    as_wave_groups,
)

#: Valid selector values for the executor switch (``auto`` = best
#: available: ``c`` with a toolchain, else ``numpy``).
EXECUTOR_BACKENDS = ("auto", "library", "numpy", "c")

#: Environment override consulted when no explicit backend is passed.
EXECUTOR_BACKEND_ENV = "REPRO_EXECUTOR_BACKEND"

#: Default backend: the library executor (no compilation surprises
#: unless a backend is asked for).
DEFAULT_EXECUTOR_BACKEND = "library"

#: Best-first ladder for ``auto`` resolution and unavailability walks.
EXECUTOR_LADDER = ("c", "numpy", "library")

#: Environment switch for the sanitizer (bounds-guarded emission) when no
#: explicit ``sanitize`` argument is passed to :func:`compile_executor`.
EXECUTOR_SANITIZE_ENV = "REPRO_EXECUTOR_SANITIZE"


def sanitize_enabled(sanitize: Optional[bool] = None) -> bool:
    """Resolve the sanitizer switch (argument > environment > off)."""
    return backends.resolve_flag(sanitize, env_var=EXECUTOR_SANITIZE_ENV)


def resolve_executor_backend(
    backend: Optional[str] = None, warn: bool = True
) -> backends.Resolution:
    """Resolve the executor backend selector (shared policy; the ``c``
    rung is gated on a live C toolchain)."""
    return backends.resolve(
        backend,
        subsystem="executor",
        choices=EXECUTOR_BACKENDS,
        env_var=EXECUTOR_BACKEND_ENV,
        default=DEFAULT_EXECUTOR_BACKEND,
        ladder=EXECUTOR_LADDER,
        available={"c": toolchain.have_toolchain},
        warn=warn,
    )


def artifact_key(program: Program, config: PassConfig, emitter: str) -> str:
    """Content address of one compiled executor build."""
    tool = toolchain.toolchain_fingerprint() if emitter.startswith("c") else ""
    blob = "\x1f".join((ir_hash(program), config.digest(), emitter, tool))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class CompiledExecutor:
    """One bound executor: ``run`` plus its provenance.

    * untiled: ``run(arrays, left, right, num_steps=1)``
    * tiled:   ``run(arrays, left, right, schedule, wave_groups=None,
      num_steps=1, dag=None, num_threads=None)`` — ``dag`` is the
      dynamic scheduler's counter DAG; ``num_threads`` (argument >
      ``REPRO_EXECUTOR_THREADS`` > visible cores) bounds the workers of
      the C counter pool (the C wave loop and the Python wave driver
      are serial).  ``schedule`` and ``wave_groups`` are what
      ``TilingFunction.schedule()`` and ``WavefrontSchedule.groups()``
      return (marshalled once) or plain lists (marshalled and checked
      on every call).
    """

    kernel_name: str
    backend: str
    tiled: bool
    run: Callable
    ir_digest: str
    artifact_path: Optional[str] = None
    from_cache: bool = False
    state: Optional[RewriteState] = None
    #: ``True``/``False`` once the IR verifier ran (or its cached proof
    #: was consulted); ``None`` when verification was skipped (library
    #: backend, or ``verify=False``).
    verified: Optional[bool] = None
    #: Whether the bound executor carries the sanitizer guard prologue.
    sanitized: bool = False
    #: Path of the content-addressed proof artifact, when one exists.
    proof_path: Optional[str] = None
    #: ``True`` when the proof came from the artifact store (warm bind —
    #: the verifier itself did not run).
    proof_from_cache: bool = False
    #: Which driver ``run`` picks over the (shared) tiled artifact:
    #: ``"wave"`` (level-synchronous) or ``"dynamic"`` (the counter DAG's
    #: commit order; in the C tier, dependence counters + work stealing
    #: above one thread).  Untiled executors are always "wave".
    scheduler: str = "wave"


_MEMO: Dict[Tuple, CompiledExecutor] = {}
_MEMO_LOCK = threading.Lock()


def clear_executor_memo() -> None:
    """Drop per-process compiled-executor memo (test hook)."""
    with _MEMO_LOCK:
        _MEMO.clear()


def _as_f64(arrays: Dict[str, np.ndarray], names) -> List[np.ndarray]:
    out = []
    for name in names:
        arr = arrays[name]
        if arr.dtype != np.float64 or not arr.flags["C_CONTIGUOUS"]:
            raise ValidationError(
                f"compiled executors require contiguous float64 data "
                f"({name!r} is {arr.dtype}, contiguous="
                f"{arr.flags['C_CONTIGUOUS']})"
            )
        out.append(arr)
    return out


def _as_i64(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    if arr.dtype != np.int64:
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValidationError(f"{what} must be an integer array")
        arr = arr.astype(np.int64)
    return arr


def _dptr(arr: np.ndarray):
    return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_double))


def _iptr(arr: np.ndarray):
    return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_longlong))


def _entry(
    call: Callable,
    program: Program,
    tiled: bool,
    sanitized: bool,
    dynamic: bool,
):
    """``call`` behind the public ``run`` signature of its shape, after
    the checks every tier owes its outside input, sanitized or not: the
    C tier would read (and commit) past a short ``right`` or a short
    data array, the NumPy tiers would fail with an untyped broadcast
    error; a schedule or a wave grouping that is not a partition would
    return a silently wrong answer on every tier.  Operand lengths are
    O(1); a marshalled schedule proved the partition when it was built
    and owes one length comparison per loop, a hand-built one is
    marshalled and checked here.  (A sanitized bind reports every trap,
    these included, as ``stage="sanitizer"``.)  A ``dynamic`` entry then
    resolves the one commit order of the call — the gated counter DAG's —
    and a wave entry drops any ``dag`` it was handed."""
    from repro.lowering.schedule import counter_schedule

    names = program.data_arrays
    labels = [loop.label for loop in program.loops]
    stage = "sanitizer" if sanitized else "executor"

    def check(arrays, left, right) -> None:
        num_nodes = len(arrays[names[0]])
        for name in names[1:]:
            if len(arrays[name]) != num_nodes:
                raise ExecutorBoundsError(
                    f"{name} has {len(arrays[name])} entries, {names[0]} "
                    f"has {num_nodes}",
                    array=name,
                    bound=num_nodes,
                    stage=stage,
                )
        if len(right) != len(left):
            raise ExecutorBoundsError(
                f"right has {len(right)} entries, left has {len(left)}",
                array="right",
                bound=len(left),
                stage=stage,
            )

    def run(arrays, left, right, num_steps=1):
        check(arrays, left, right)
        call(arrays, left, right, num_steps)
        return arrays

    def run_tiled(
        arrays,
        left,
        right,
        schedule,
        wave_groups=None,
        num_steps=1,
        dag=None,
        num_threads=None,
    ):
        check(arrays, left, right)
        extents = [
            len(arrays[names[0]]) if loop.domain == "nodes" else len(left)
            for loop in program.loops
        ]
        schedule = as_tile_schedule(schedule, extents, labels, stage)
        if wave_groups is not None:
            wave_groups = as_wave_groups(wave_groups, len(schedule), stage)
        if dynamic:
            dag, wave_groups = counter_schedule(
                dag, wave_groups, len(schedule), stage
            )
        else:
            dag = None
        call(
            arrays, left, right, num_steps, schedule, wave_groups, dag,
            num_threads,
        )
        return arrays

    return run_tiled if tiled else run


def _python_call(table: dict, tiled: bool) -> Callable:
    """A Python tier: ``table`` is what it computes — ``run`` (whole-
    range time steps), ``PHASES`` (the per-loop phase table) and, when
    sanitized, ``guard`` — hand-written for ``library``, the emitted
    module's namespace for ``numpy``.  A tiled bind runs the table under
    the wave driver of :mod:`repro.lowering.schedule`, whichever
    scheduler named the wave groups."""
    from repro.lowering.schedule import run_wave_phases

    if not tiled:
        return table["run"]
    phases = table["PHASES"]
    guard = table.get("guard")

    def call(
        arrays, left, right, num_steps, schedule, wave_groups, dag, num_threads
    ):
        if guard is not None:
            guard(arrays, left, right, schedule, wave_groups, dag)
        run_wave_phases(
            phases, arrays, left, right, schedule, wave_groups,
            num_steps, num_threads,
        )

    return call


def _library_table(kernel_name: str) -> dict:
    """The hand-written reference tables, in the emitted module's shape."""
    from repro.kernels.executors import PHASE_FUNCTIONS, STEP_FUNCTIONS

    step = STEP_FUNCTIONS[kernel_name]

    def run(arrays, left, right, num_steps):
        for _ in range(num_steps):
            step(arrays, left, right)

    return {"run": run, "PHASES": PHASE_FUNCTIONS[kernel_name]}


def _guard_source_name(code: int, program: Program) -> str:
    """Map a sanitized executor's ``err[0]`` code to an index source."""
    from repro.lowering import emit_c

    for base, what in (
        (emit_c.GUARD_SCHEDULE_BASE, "schedule"),
        (emit_c.GUARD_OFFSETS_BASE, "schedule.offsets"),
    ):
        if 0 <= code - base < len(program.loops):
            return f"{what}[{program.loops[code - base].label}]"
    return {
        emit_c.GUARD_LEFT: "left",
        emit_c.GUARD_RIGHT: "right",
        emit_c.GUARD_WAVES: "wave_tiles",
        emit_c.GUARD_SUCC: "dag.succ_indices",
    }[code]


def _raise_guard_trap(err: np.ndarray, program: Program) -> None:
    code, pos, value, bound = (int(v) for v in err[:4])
    name = _guard_source_name(code, program)
    raise ExecutorBoundsError(
        f"{name}[{pos}] = {value} outside [0, {bound})",
        array=name,
        bound=bound,
        stage="sanitizer",
        indices=[pos],
    )


def _c_call(
    so_path: str, program: Program, entry: str, sanitize: bool
) -> Callable:
    """The one ``ctypes`` marshaller, parameterised by entry point.

    ``run`` takes the operands alone; ``run_tiled`` adds the tile
    schedule, the commit order as wave groups, the counter graph of a
    dynamic call (in-degree seeds + successor CSR; ``NULL`` selects the
    wave loop) and the resolved worker count.  Schedule, grouping and
    DAG arrive marshalled and checked (:func:`_entry`), so nothing is
    flattened here: each loop passes the two pointers its
    :class:`~repro.transforms.tile_schedule.CSRLists` already holds,
    with ``NULL`` for the iteration array of a range-form loop.  Dtype
    checks, scratch/err allocation and guard-trap decoding are shared."""
    from repro.lowering.schedule import resolve_num_threads

    fn = getattr(ctypes.CDLL(so_path), entry)
    fn.restype = None
    names = program.data_arrays
    i64 = ctypes.c_longlong

    def call(
        arrays,
        left,
        right,
        num_steps,
        schedule=None,
        wave_groups=None,
        dag=None,
        num_threads=None,
    ):
        datas = _as_f64(arrays, names)
        left = _as_i64(left, "left")
        right = _as_i64(right, "right")
        # Every array behind a pointer must outlive the foreign call.
        keepalive: List[np.ndarray] = []

        def pointers(*index_arrays):
            keepalive.extend(index_arrays)
            return [_iptr(a) for a in index_arrays]

        graph: list = []  # between num_steps and scratch
        if entry == "run_tiled":
            # ``schedule`` (the caller's reference) keeps these alive.
            for loop in schedule.loops:
                graph += [
                    None if loop.is_range else _iptr(loop.flat),
                    _iptr(loop.offsets),
                ]
            if wave_groups is None:
                wave_groups = CSRLists.singletons(len(schedule))
            graph += pointers(wave_groups.flat, wave_groups.offsets)
            graph.append(i64(len(wave_groups)))
            if dag is None:
                graph += [None, None, None]
            else:
                graph += pointers(
                    _as_i64(dag.indegree, "dag.indegree"),
                    _as_i64(dag.succ_indptr, "dag.succ_indptr"),
                    _as_i64(dag.succ_indices, "dag.succ_indices"),
                )
            graph += [
                i64(len(schedule)), i64(resolve_num_threads(num_threads))
            ]
        scratch = np.empty(max(len(left), 1), dtype=np.float64)
        err = np.zeros(4, dtype=np.int64)
        fn(
            *[_dptr(d) for d in datas],
            _iptr(left),
            _iptr(right),
            i64(len(datas[0])),
            i64(len(left)),
            i64(num_steps),
            *graph,
            _dptr(scratch),
            *([_iptr(err)] if sanitize else []),
        )
        if err[0]:
            _raise_guard_trap(err, program)

    return call


def _rewritten(kernel_name: str, tiled: bool, config: PassConfig) -> RewriteState:
    from repro.kernels.specs import kernel_by_name

    program = lower_kernel(kernel_by_name(kernel_name))
    return LoweringRewriter(config=config, tiled=tiled).run(program)


def _verify_with_proof_cache(state: RewriteState, store, tiled: bool):
    """Run the IR verifier — or reuse its content-addressed proof.

    Returns ``(proven, proof_path, from_cache)``.  The proof JSON is
    keyed by lowered-IR hash x pass config x verifier version, so a warm
    bind of an already-proven program is a file read, not a re-proof; a
    corrupted proof file is a safe miss (re-verify and rewrite).
    """
    from repro.analysis.irverify import proof_key, verify_state

    key = proof_key(state.program, state.config, tiled)
    built = {}

    def build() -> str:
        report = verify_state(state)
        built["proven"] = report.proven
        return report.to_json()

    path, hit = store.get_or_build_text(key, "proof", build)
    if not hit:
        return built["proven"], str(path), False
    try:
        return bool(json.loads(path.read_text())["proven"]), str(path), True
    except (OSError, ValueError, KeyError):  # corrupted proof: re-verify
        report = verify_state(state)
        store.put_text(key, "proof", report.to_json())
        return report.proven, str(path), False


def compile_executor(
    kernel_name: str,
    backend: Optional[str] = None,
    tiled: bool = False,
    config: Optional[PassConfig] = None,
    cache_dir=None,
    memo: bool = True,
    verify: bool = True,
    sanitize: Optional[bool] = None,
    scheduler: Optional[str] = None,
) -> CompiledExecutor:
    """Lower, rewrite, emit, (compile,) and bind one kernel executor.

    ``backend`` follows the shared resolution policy; the returned
    executor records which backend actually ran and whether its artifact
    came from the content-addressed cache.

    ``scheduler`` (argument > ``REPRO_EXECUTOR_SCHEDULER`` > ``wave``)
    selects how a tiled bind's ``run`` orders its tiles: the wave groups
    it is handed, or the commit order of the dependence-counter DAG in
    its ``dag`` argument (run by the C tier's counter pool above one
    thread).  It selects nothing about the build — both names bind the
    same artifact — and both stay bit-identical at any thread count.
    ``"dynamic"`` on a program that is not counter-schedulable (no
    wave-parallel skeleton, an unfissioned interaction loop) raises
    :class:`~repro.errors.LegalityError` with the IRV006 diagnostics.
    Untiled executors validate the name and then ignore it (there is no
    tile graph to schedule).

    Compiled backends (``numpy``/``c``) are **gated on proof**: the IR
    verifier (:mod:`repro.analysis.irverify`) must prove the rewritten
    program in-bounds, race-free, and translation-validated before
    emission, or the bind raises :class:`~repro.errors.LegalityError` —
    unless ``sanitize`` (argument or ``REPRO_EXECUTOR_SANITIZE``) selects
    the guarded emitters, which trap bad indices as typed
    :class:`~repro.errors.ExecutorBoundsError` at run time instead.
    Proof results are content-addressed next to the artifacts, so warm
    binds skip re-verification.  ``verify=False`` skips the gate
    entirely (test/ablation hook).
    """
    from repro.lowering import emit_c, emit_numpy
    from repro.lowering.schedule import resolve_scheduler
    from repro.plancache.artifacts import ArtifactStore

    resolved = resolve_executor_backend(backend).backend
    sched = resolve_scheduler(scheduler).backend
    if not tiled:  # validated, then ignored: no tile graph to schedule
        sched = "wave"
    dynamic = sched == "dynamic"
    config = config or PassConfig()
    sanitized = sanitize_enabled(sanitize) and resolved != "library"

    memo_key = (
        kernel_name,
        resolved,
        tiled,
        sched,
        config.digest(),
        str(cache_dir),
        verify,
        sanitized,
    )
    if memo:
        with _MEMO_LOCK:
            hit = _MEMO.get(memo_key)
        if hit is not None:
            return hit

    state = _rewritten(kernel_name, tiled, config)
    program = state.program
    if dynamic:
        from repro.analysis.irverify import counter_schedule_obligations

        problems = counter_schedule_obligations(program)
        if problems:
            raise LegalityError(
                f"executor {kernel_name!r} cannot run under the dynamic "
                "scheduler: "
                + "; ".join(f"{d.code}: {d.message}" for d in problems),
                stage="irverify",
                hint=problems[0].hint,
            )

    verified = None
    proof_path = None
    proof_cached = False
    store = ArtifactStore(cache_dir)
    if verify and resolved != "library":
        verified, proof_path, proof_cached = _verify_with_proof_cache(
            state, store, tiled
        )
        if not verified and not sanitized:
            raise LegalityError(
                f"IR verifier could not prove executor "
                f"{kernel_name!r} ({'tiled' if tiled else 'untiled'}, "
                f"{resolved}) safe; refusing unguarded emission",
                stage="irverify",
                hint=(
                    "inspect with `repro lint --ir`, or bind with "
                    "sanitize=True / REPRO_EXECUTOR_SANITIZE=1 for a "
                    "bounds-guarded build"
                ),
            )

    artifact_path = None
    from_cache = False
    if resolved == "library":
        call = _python_call(_library_table(kernel_name), tiled)
    else:
        # One build recipe for both emitted tiers: content-addressed
        # source text, then (C only) the shared object built from it.
        if resolved == "c":
            emitter, suffix = emit_c, "c"
            emit, entry = emit_c.SHAPES["tiled" if tiled else "untiled"]
        else:
            emitter, suffix = emit_numpy, "py"
            emit = emit_numpy.emit_numpy
        version = emitter.EMITTER_VERSION
        if sanitized:
            version += "+" + emitter.SANITIZE_TAG
        key = artifact_key(program, config, version)
        path, from_cache = store.get_or_build_text(
            key, suffix, lambda: emit(program, sanitize=sanitized)
        )
        if resolved == "c":
            src_path = path
            path, from_cache = store.get_or_build_file(
                key,
                "so",
                lambda tmp: toolchain.compile_shared(src_path, tmp),
            )
            call = _c_call(str(path), program, entry, sanitized)
        else:
            table: dict = {}
            exec(compile(path.read_text(), str(path), "exec"), table)
            call = _python_call(table, tiled)
        artifact_path = str(path)
    compiled = CompiledExecutor(
        kernel_name=kernel_name,
        backend=resolved,
        tiled=tiled,
        run=_entry(call, program, tiled, sanitized, dynamic),
        ir_digest=ir_hash(program),
        artifact_path=artifact_path,
        from_cache=from_cache,
        state=state,
        verified=verified,
        sanitized=sanitized,
        proof_path=proof_path,
        proof_from_cache=proof_cached,
        scheduler=sched,
    )

    if memo:
        with _MEMO_LOCK:
            _MEMO[memo_key] = compiled
    return compiled


def executor_backend_report() -> dict:
    """Doctor payload: selection, toolchain, and artifact-store state."""
    from repro.analysis.irverify import IRVERIFY_VERSION
    from repro.lowering.schedule import scheduler_report
    from repro.plancache.artifacts import ArtifactStore

    resolution = resolve_executor_backend(warn=False)
    ok, reason = toolchain.have_toolchain()
    cc = toolchain.find_compiler()
    report = {
        "sanitize": {
            "enabled": sanitize_enabled(),
            "env": EXECUTOR_SANITIZE_ENV,
        },
        "scheduler": scheduler_report(),
        "verifier": {"version": IRVERIFY_VERSION},
        "backend": resolution.backend,
        "source": resolution.source,
        "requested": resolution.requested,
        "degraded": resolution.degraded,
        "fallbacks": [list(f) for f in resolution.fallbacks],
        "choices": list(EXECUTOR_BACKENDS),
        "toolchain": {
            "available": ok,
            "compiler": cc,
            "version": toolchain.compiler_version(cc) if cc else None,
            "fingerprint": toolchain.toolchain_fingerprint(),
            "reason": reason or None,
        },
        "artifacts": ArtifactStore().health(),
    }
    return report


__all__ = [
    "DEFAULT_EXECUTOR_BACKEND",
    "EXECUTOR_BACKENDS",
    "EXECUTOR_BACKEND_ENV",
    "EXECUTOR_LADDER",
    "EXECUTOR_SANITIZE_ENV",
    "CompiledExecutor",
    "artifact_key",
    "clear_executor_memo",
    "compile_executor",
    "executor_backend_report",
    "resolve_executor_backend",
    "sanitize_enabled",
]
