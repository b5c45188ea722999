"""repro.lowering — the compiled executor tier.

Lowers each kernel's executor loop nest into a small IR
(:mod:`repro.lowering.ir`), rewrites it with an ordered Devito-style
pass pipeline (:mod:`repro.lowering.passes`: fission -> blocking ->
vectorize -> parallelize), and emits either a NumPy phase table
(:mod:`repro.lowering.emit_numpy`, run by the wave driver of
:mod:`repro.lowering.schedule`) or C compiled at bind time
(:mod:`repro.lowering.emit_c` + :mod:`repro.lowering.toolchain`: one
tiled unit holding the wave loop and the counter pool).
:mod:`repro.lowering.executor` binds the chosen backend, content-
addresses the artifacts in the plan cache, and guarantees bit-identity
with the library executor.
"""

from repro.lowering.executor import (
    DEFAULT_EXECUTOR_BACKEND,
    EXECUTOR_BACKEND_ENV,
    EXECUTOR_BACKENDS,
    EXECUTOR_LADDER,
    CompiledExecutor,
    artifact_key,
    clear_executor_memo,
    compile_executor,
    executor_backend_report,
    resolve_executor_backend,
)
from repro.lowering.ir import Program, ir_hash, lower_kernel
from repro.lowering.passes import LoweringRewriter, PassConfig

__all__ = [
    "DEFAULT_EXECUTOR_BACKEND",
    "EXECUTOR_BACKEND_ENV",
    "EXECUTOR_BACKENDS",
    "EXECUTOR_LADDER",
    "CompiledExecutor",
    "LoweringRewriter",
    "PassConfig",
    "Program",
    "artifact_key",
    "clear_executor_memo",
    "compile_executor",
    "executor_backend_report",
    "ir_hash",
    "lower_kernel",
    "resolve_executor_backend",
]
