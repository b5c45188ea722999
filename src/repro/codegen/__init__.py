"""Specializing code generator.

The paper's end product is compile-time *generated* code: a transformed
executor (Figures 13/14) and a composed inspector specialized to the
planned composition (Figures 10--12/15).  This package emits that code as
Python source from the kernel IR and a step list:

* :func:`~repro.codegen.executor_gen.generate_executor_source` — scalar
  loops straight from the IR statements, in original or sparse-tiled form;
* :func:`~repro.codegen.inspector_gen.generate_inspector_source` — one
  inlined phase per planned step, with the index-array adjustments and
  the data-remap schedule (once/each) specialized in;
* :func:`~repro.codegen.emit.compile_source` — compile generated source
  into a callable.

Generated executors are validated against the vectorized reference
executors in the test suite, which is the reproduction's analog of the
paper trusting xlc/gcc.  These are listings: the executors that run are
emitted by :mod:`repro.lowering`, and the address trace the cost model
prices is read from the same lowered program by
:func:`repro.runtime.executor.emit_trace`.
"""

from repro.codegen.emit import SourceWriter, compile_source
from repro.codegen.executor_gen import generate_executor_source
from repro.codegen.inspector_gen import generate_inspector_source

__all__ = [
    "SourceWriter",
    "compile_source",
    "generate_executor_source",
    "generate_inspector_source",
]
