"""repro.lowering — the compiled executor tier.

Lowers each kernel's executor loop nest into a small IR
(:mod:`repro.lowering.ir`), rewrites it with an ordered Devito-style
pass pipeline (:mod:`repro.lowering.passes`: fission -> blocking ->
vectorize), and emits either a NumPy phase table
(:mod:`repro.lowering.emit_numpy`, run by the tile driver of
:mod:`repro.lowering.schedule`) or C compiled at bind time
(:mod:`repro.lowering.emit_c` + :mod:`repro.lowering.toolchain`: one
tiled unit holding the phase functions and the tile loop).  Every tier
runs tiles in ascending id, each loop of a tile in program order.
:mod:`repro.lowering.executor` binds the chosen backend, content-
addresses the artifacts in the plan cache, and guarantees bit-identity
across the tiers.
"""

from repro.lowering.executor import (
    DEFAULT_EXECUTOR_BACKEND,
    EXECUTOR_BACKENDS,
    CompiledExecutor,
    artifact_key,
    clear_executor_memo,
    compile_executor,
    executor_backend_report,
    resolve_executor_backend,
)
from repro.lowering.ir import Program, ir_hash, lower_kernel
from repro.lowering.passes import LoweringRewriter

__all__ = [
    "DEFAULT_EXECUTOR_BACKEND",
    "EXECUTOR_BACKENDS",
    "CompiledExecutor",
    "LoweringRewriter",
    "Program",
    "artifact_key",
    "clear_executor_memo",
    "compile_executor",
    "executor_backend_report",
    "ir_hash",
    "lower_kernel",
    "resolve_executor_backend",
]
