"""Bind-time compilation and selection of executor backends.

Two backends implement the same executor contract, both emitted from
the kernel's one definition (:mod:`repro.kernels.specs`, lowered and
rewritten):

* ``numpy`` — the phase table :mod:`repro.lowering.emit_numpy` emits
  from the rewritten IR, exec'd at bind time (the default);
* ``c``     — generated C from :mod:`repro.lowering.emit_c`, compiled
  to a shared object at bind time and driven through ``ctypes``.

``library``, the hand-written tier that was once the default, is only an
alias of ``numpy`` now (:data:`LIBRARY_ALIAS`); its tables are the test
oracle.

Each tier binds one artifact per kernel — the rewritten, blocked
program and its one proof — and runs it over a tile schedule:
the ``numpy`` tier hands its phase table to the tile driver of
:mod:`repro.lowering.schedule`, the C tier calls the unit's one entry
point ``run_tiled`` through one marshaller (:func:`_c_call`).
``tiled`` selects only the signature of ``run``: an untiled executor is
the same call over the *trivial schedule*
(:func:`~repro.transforms.tile_schedule.trivial_schedule`: one tile,
every loop in range form), the paper's
tiling ``theta(i) = 0``, which runs each loop over its whole range in
the original order.  Every tier sits behind one
entry (:func:`_entry`) that checks its outside input — operand names,
dtypes and lengths and ``num_steps``, the same typed answer on every
tier — and is where a tile schedule becomes its one representation
(:class:`~repro.transforms.tile_schedule.TileSchedule`): the object
``TilingFunction.schedule()`` returns passes through after an O(1)
check and is handed to C by pointer; a hand-built list of tiles is
marshalled and fully checked on each call.

Every tier has one driver and one loop order, the paper's Figure 14:
tiles in ascending id, and inside a tile each loop in program order.

Selection is :func:`resolve_executor_backend` (argument >
``REPRO_EXECUTOR_BACKEND`` > default ``numpy``); asking for ``c`` on a
machine without a toolchain degrades to ``numpy`` with a single
:class:`~repro.backends.BackendFallbackWarning` per process.

Compiled artifacts (the generated ``.py`` source, the ``.c`` source,
and the built ``.so``) are content-addressed in the plan cache's
:class:`~repro.plancache.artifacts.ArtifactStore` under
:func:`artifact_key` — lowered-IR hash x emitter version x toolchain
fingerprint — so a warm bind is a file read + dlopen, not a
compile.  A per-process memo on top makes repeat binds free.

All backends are **bit-identical** (asserted by the compiled identity
suite): the callable returned by :func:`compile_executor` has the same
signature and the same floating-point behavior per backend.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import numbers
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import backends
from repro.errors import ExecutorBoundsError, LegalityError, ValidationError
from repro.lowering import toolchain
from repro.lowering.ir import Program, ir_hash, lower_kernel
from repro.lowering.passes import LoweringRewriter, RewriteState
from repro.transforms.tile_schedule import as_tile_schedule, trivial_schedule

#: Valid selector values for the executor switch (``auto`` = best
#: available: ``c`` with a toolchain, else ``numpy``).
EXECUTOR_BACKENDS = ("auto", "numpy", "c")

#: Default backend: needs no toolchain.
DEFAULT_EXECUTOR_BACKEND = "numpy"

#: Keepalive: the deleted hand-written tier's name, which the frozen
#: end-to-end harness still asks for; it resolves to ``numpy``.
LIBRARY_ALIAS = "library"


def sanitize_enabled(sanitize: Optional[bool] = None) -> bool:
    """Resolve the sanitizer switch: argument >
    ``REPRO_EXECUTOR_SANITIZE`` > off."""
    if sanitize is None:
        return backends.read(backends.EXECUTOR_SANITIZE)
    return bool(sanitize)


#: Set once this process has warned that ``c`` fell back to ``numpy``.
_FALLBACK_WARNED = threading.Event()
_FALLBACK_LOCK = threading.Lock()


def reset_fallback_announcements() -> None:
    """Forget that the fallback was already warned about (test hook)."""
    _FALLBACK_WARNED.clear()


def resolve_executor_backend(
    backend: Optional[str] = None, warn: bool = True
) -> backends.Resolution:
    """Resolve the executor backend selector to the backend that runs.

    * precedence — the argument beats ``REPRO_EXECUTOR_BACKEND`` beats
      ``numpy``; an absent (or ``"auto"``) argument defers to the
      variable;
    * ``auto`` is the best available backend, picked silently: ``c``
      with a live C toolchain, else ``numpy``;
    * :data:`LIBRARY_ALIAS` resolves to ``numpy``;
    * an unknown name raises :class:`~repro.errors.ValidationError`
      naming the choices (a typo never silently defaults);
    * ``c`` without a toolchain falls back to ``numpy`` with one
      :class:`~repro.backends.BackendFallbackWarning` per process
      (none with ``warn=False``) — never an error.
    """
    requested, source = backend, "argument"
    if requested in (None, "", "auto"):
        env_value = backends.read(backends.EXECUTOR_BACKEND)
        if env_value:
            requested, source = env_value, "env"
        elif requested != "auto":
            requested, source = DEFAULT_EXECUTOR_BACKEND, "default"
    choices = EXECUTOR_BACKENDS + (LIBRARY_ALIAS,)
    if requested not in choices:
        raise ValidationError(
            f"unknown executor backend {requested!r}; choose from {choices}"
        )
    resolved, fallbacks = "numpy", ()
    if requested in ("auto", "c"):
        ok, reason = toolchain.have_toolchain()
        if ok:
            resolved = "c"
        elif requested == "c":
            fallbacks = (("c", "numpy", reason),)
            with _FALLBACK_LOCK:
                first = warn and not _FALLBACK_WARNED.is_set()
                if first:
                    _FALLBACK_WARNED.set()
            if first:
                warnings.warn(
                    f"executor backend 'c' unavailable ({reason}); "
                    "falling back to 'numpy'",
                    backends.BackendFallbackWarning,
                    stacklevel=2,
                )
    return backends.Resolution(resolved, source, requested, fallbacks)


def artifact_key(program: Program, emitter: str) -> str:
    """Content address of one compiled executor build."""
    tool = toolchain.toolchain_fingerprint() if emitter.startswith("c") else ""
    blob = "\x1f".join((ir_hash(program), emitter, tool))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class CompiledExecutor:
    """One bound executor: ``run`` plus its provenance.

    * untiled: ``run(arrays, left, right, num_steps=1)`` — the tiled
      call over the trivial schedule
    * tiled:   ``run(arrays, left, right, schedule, num_steps=1)`` —
      ``schedule`` is what ``TilingFunction.schedule()`` returns
      (marshalled once) or a plain list of tiles (marshalled and
      checked on every call).
    """

    kernel_name: str
    backend: str
    tiled: bool
    run: Callable
    ir_digest: str
    artifact_path: Optional[str] = None
    from_cache: bool = False
    state: Optional[RewriteState] = None
    #: Whether the IR verifier (or its cached proof) proved the program;
    #: ``False`` only for a sanitized build of an unproven program.
    verified: bool = False
    #: Whether the bound executor carries the sanitizer guard prologue.
    sanitized: bool = False
    #: Path of the content-addressed proof artifact, when one exists.
    proof_path: Optional[str] = None
    #: ``True`` when the proof came from the artifact store (warm bind —
    #: the verifier itself did not run).
    proof_from_cache: bool = False


_MEMO: Dict[Tuple, CompiledExecutor] = {}
_MEMO_LOCK = threading.Lock()


def clear_executor_memo() -> None:
    """Drop per-process compiled-executor memo (test hook)."""
    with _MEMO_LOCK:
        _MEMO.clear()


def _dptr(arr: np.ndarray):
    return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_double))


def _iptr(arr: np.ndarray):
    return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_longlong))


def _entry(
    call: Callable,
    program: Program,
    tiled: bool,
    sanitized: bool,
):
    """``call`` behind the public ``run`` signature of its shape, after
    the checks every tier owes its outside input, sanitized or not, so
    that each tier gives one typed answer before any mutation: missing,
    read-only (a frozen, bound dataset's: NumPy would raise an untyped
    error and C would write through the flag) or
    non-float64/non-contiguous data arrays, non-integer ``left`` /
    ``right`` and a ``num_steps`` that is not a non-negative integer are
    :class:`ValidationError`s; a short ``right`` or data array an
    :class:`ExecutorBoundsError` (the C tier would read and commit past
    it); a schedule that is not a partition would return a silently
    wrong answer on every tier.  Everything but a
    hand-built schedule is O(1): a marshalled schedule proved the
    partition when it was built and owes one length comparison per
    loop, a hand-built one is marshalled and checked here.  (A sanitized
    bind reports every trap, these included, as ``stage="sanitizer"``.)
    An untiled ``run`` calls with the trivial schedule."""
    names = program.data_arrays
    labels = [loop.label for loop in program.loops]
    stage = "sanitizer" if sanitized else "executor"

    def check(arrays, left, right, num_steps) -> List[int]:
        """The operand checks; returns the loop extents."""
        missing = [name for name in names if name not in arrays]
        if missing:
            raise ValidationError(
                f"arrays lacks data array(s) {missing}", stage=stage
            )
        if (
            isinstance(num_steps, bool)
            or not isinstance(num_steps, numbers.Integral)
            or num_steps < 0
        ):
            raise ValidationError(
                f"num_steps must be a non-negative integer, not "
                f"{num_steps!r}",
                stage=stage,
            )
        num_nodes = len(arrays[names[0]])
        for name in names:
            arr = arrays[name]
            if not (
                isinstance(arr, np.ndarray)
                and arr.dtype == np.float64
                and arr.flags["C_CONTIGUOUS"]
            ):
                raise ValidationError(
                    f"executors require contiguous float64 data arrays "
                    f"({name!r} is {getattr(arr, 'dtype', type(arr))})",
                    stage=stage,
                )
            if not arr.flags.writeable:
                raise ValidationError(
                    f"data array {name!r} is read-only: executors write "
                    "their operands in place",
                    stage=stage,
                    hint="a bound dataset is frozen; run on data.copy()",
                )
            if len(arr) != num_nodes:
                raise ExecutorBoundsError(
                    f"{name} has {len(arr)} entries, {names[0]} has "
                    f"{num_nodes}",
                    array=name,
                    bound=num_nodes,
                    stage=stage,
                )
        for what, index in (("left", left), ("right", right)):
            if not (
                isinstance(index, np.ndarray)
                and np.issubdtype(index.dtype, np.integer)
            ):
                raise ValidationError(
                    f"{what} must be an integer array "
                    f"({getattr(index, 'dtype', type(index))})",
                    stage=stage,
                )
        if len(right) != len(left):
            raise ExecutorBoundsError(
                f"right has {len(right)} entries, left has {len(left)}",
                array="right",
                bound=len(left),
                stage=stage,
            )
        return [
            num_nodes if loop.domain == "nodes" else len(left)
            for loop in program.loops
        ]

    def run(arrays, left, right, num_steps=1):
        extents = check(arrays, left, right, num_steps)
        call(arrays, left, right, num_steps, trivial_schedule(tuple(extents)))
        return arrays

    def run_tiled(arrays, left, right, schedule, num_steps=1):
        extents = check(arrays, left, right, num_steps)
        schedule = as_tile_schedule(schedule, extents, labels, stage)
        call(arrays, left, right, num_steps, schedule)
        return arrays

    return run_tiled if tiled else run


def _python_call(phases: list, guard: Optional[Callable] = None) -> Callable:
    """The ``numpy`` tier: ``phases`` is the emitted module's per-loop
    ``PHASES`` table and ``guard`` the sanitizer prologue of a sanitized
    module.  Every call runs the table under the tile driver of
    :mod:`repro.lowering.schedule`, whichever schedule named the
    tiles."""
    from repro.lowering.schedule import run_tile_phases

    def call(arrays, left, right, num_steps, schedule):
        if guard is not None:
            guard(arrays, left, right, schedule)
        run_tile_phases(phases, arrays, left, right, schedule, num_steps)

    return call


def _guard_source_name(code: int, program: Program) -> str:
    """Map a sanitized executor's ``err[0]`` code to an index source."""
    from repro.lowering import emit_c

    for base, what in (
        (emit_c.GUARD_SCHEDULE_BASE, "schedule"),
        (emit_c.GUARD_OFFSETS_BASE, "schedule.offsets"),
    ):
        if 0 <= code - base < len(program.loops):
            return f"{what}[{program.loops[code - base].label}]"
    return {emit_c.GUARD_LEFT: "left", emit_c.GUARD_RIGHT: "right"}[code]


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


def _c_call(so_path: str, program: Program, sanitize: bool) -> Callable:
    """The one ``ctypes`` marshaller, of the unit's ``run_tiled``.

    After the operands it passes the tile schedule.  It arrives
    marshalled and checked (:func:`_entry`), so nothing is flattened
    here: each loop passes the two pointers its
    :class:`~repro.transforms.tile_schedule.CSRLists` already holds,
    with ``NULL`` for the iteration array of a range-form loop.
    Scratch/err allocation and guard-trap decoding live here too."""
    fn = ctypes.CDLL(so_path).run_tiled
    fn.restype = None
    names = program.data_arrays
    i64 = ctypes.c_longlong

    def call(arrays, left, right, num_steps, schedule):
        # Every array behind a pointer must outlive the foreign call:
        # ``ends`` is held here, ``schedule`` by the caller.
        ends = [np.ascontiguousarray(a, dtype=np.int64) for a in (left, right)]
        tiles: list = []  # between num_steps and num_tiles
        for loop in schedule.loops:
            tiles += [
                None if loop.is_range else _iptr(loop.flat),
                _iptr(loop.offsets),
            ]
        scratch = np.empty(max(len(left), 1), dtype=np.float64)
        err = np.zeros(4, dtype=np.int64)
        fn(
            *[_dptr(arrays[name]) for name in names],
            *[_iptr(a) for a in ends],
            i64(len(arrays[names[0]])),
            i64(len(left)),
            i64(num_steps),
            *tiles,
            i64(len(schedule)),
            _dptr(scratch),
            *([_iptr(err)] if sanitize else []),
        )
        if err[0]:
            _raise_guard_trap(err, program)

    return call


def _rewritten(kernel_name: str) -> RewriteState:
    from repro.kernels.specs import kernel_by_name

    program = lower_kernel(kernel_by_name(kernel_name))
    return LoweringRewriter().run(program)


def _verify_with_proof_cache(state: RewriteState, store):
    """Run the IR verifier — or reuse its content-addressed proof.

    Returns ``(proven, proof_path, from_cache)``.  The proof JSON is
    keyed by lowered-IR hash x verifier version, so a warm
    bind of an already-proven program is a file read, not a re-proof; a
    corrupted proof file is a safe miss (re-verify and rewrite).
    """
    from repro.analysis.irverify import proof_key, verify_state

    key = proof_key(state.program)
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
    cache_dir=None,
    memo: bool = True,
    sanitize: Optional[bool] = None,
    scheduler: Optional[str] = None,
) -> CompiledExecutor:
    """Lower, rewrite, emit, (compile,) and bind one kernel executor.

    ``backend`` follows the shared resolution policy; the returned
    executor records which backend actually ran and whether its artifact
    came from the content-addressed cache.

    ``scheduler`` selects nothing (``None``/``auto``/``wave``/``dynamic``
    bind the one memoised executor; any other name is a ValidationError).

    ``tiled`` selects the ``run`` signature and nothing about the build:
    both bind the one blocked artifact and its one proof, and an untiled
    ``run`` is the tiled one over the trivial schedule.

    Every backend is **gated on proof**: the IR verifier
    (:mod:`repro.analysis.irverify`) must prove the rewritten program
    in-bounds and translation-validated before emission, or
    the bind raises :class:`~repro.errors.LegalityError` — unless
    ``sanitize`` (argument or ``REPRO_EXECUTOR_SANITIZE``) selects
    the guarded emitters, which trap bad indices as typed
    :class:`~repro.errors.ExecutorBoundsError` at run time instead.
    Proof results are content-addressed next to the artifacts, so warm
    binds skip re-verification.
    """
    from repro.lowering import emit_c, emit_numpy
    from repro.plancache.artifacts import ArtifactStore

    if scheduler not in (None, "auto", "wave", "dynamic"):
        raise ValidationError(
            f"unknown scheduler backend {scheduler!r}; choose from "
            "('auto', 'wave', 'dynamic')"
        )
    resolved = resolve_executor_backend(backend).backend
    sanitized = sanitize_enabled(sanitize)

    memo_key = (kernel_name, resolved, tiled, str(cache_dir), sanitized)
    if memo:
        with _MEMO_LOCK:
            hit = _MEMO.get(memo_key)
        if hit is not None:
            return hit

    state = _rewritten(kernel_name)
    program = state.program

    store = ArtifactStore(cache_dir)
    verified, proof_path, proof_cached = _verify_with_proof_cache(
        state, store
    )
    if not verified and not sanitized:
        raise LegalityError(
            f"IR verifier could not prove executor "
            f"{kernel_name!r} ({resolved}) safe; refusing unguarded "
            "emission",
            stage="irverify",
            hint=(
                "inspect with `repro lint --ir`, or bind with "
                "sanitize=True / REPRO_EXECUTOR_SANITIZE=1 for a "
                "bounds-guarded build"
            ),
        )

    # One build recipe for both tiers: content-addressed source text,
    # then (C only) the shared object built from it.
    if resolved == "c":
        emitter, suffix, emit = emit_c, "c", emit_c.emit_c_tiled
    else:
        emitter, suffix, emit = emit_numpy, "py", emit_numpy.emit_numpy
    version = emitter.EMITTER_VERSION
    if sanitized:
        version += "+" + emitter.SANITIZE_TAG
    key = artifact_key(program, version)
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
        call = _c_call(str(path), program, sanitized)
    else:
        table: dict = {}
        exec(compile(path.read_text(), str(path), "exec"), table)
        call = _python_call(table["PHASES"], table.get("guard"))
    compiled = CompiledExecutor(
        kernel_name=kernel_name,
        backend=resolved,
        tiled=tiled,
        run=_entry(call, program, tiled, sanitized),
        ir_digest=ir_hash(program),
        artifact_path=str(path),
        from_cache=from_cache,
        state=state,
        verified=verified,
        sanitized=sanitized,
        proof_path=proof_path,
        proof_from_cache=proof_cached,
    )

    if memo:
        with _MEMO_LOCK:
            _MEMO[memo_key] = compiled
    return compiled


def executor_backend_report() -> dict:
    """Doctor payload: selection, toolchain, and artifact-store state."""
    from repro.analysis.irverify import IRVERIFY_VERSION
    from repro.plancache.artifacts import ArtifactStore

    resolution = resolve_executor_backend(warn=False)
    ok, reason = toolchain.have_toolchain()
    cc = toolchain.find_compiler()
    report = {
        "sanitize": {
            "enabled": sanitize_enabled(),
            "env": backends.EXECUTOR_SANITIZE.name,
        },
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
    "LIBRARY_ALIAS",
    "CompiledExecutor",
    "artifact_key",
    "clear_executor_memo",
    "compile_executor",
    "executor_backend_report",
    "reset_fallback_announcements",
    "resolve_executor_backend",
    "sanitize_enabled",
]
