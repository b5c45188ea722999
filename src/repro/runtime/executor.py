"""Executors: trace emission and numeric execution under a plan.

An :class:`ExecutionPlan` is the run-time counterpart of the transformed
unified iteration space: either the identity (after the inspector has
physically remapped the arrays, the transformed executor of the paper's
Figure 13 runs plain ``0..n-1`` loops), or a sparse-tile schedule
(Figure 14's ``do t / do x in sched(t,l)``).

``emit_trace`` produces the address trace the cache simulator prices;
``run_numeric`` executes the actual arithmetic for end-to-end validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.cachesim.trace import AccessTrace, TraceBuilder
from repro.kernels.data import KernelData
from repro.transforms.tile_schedule import as_tile_schedule

NODES_REGION = "nodes"
INTERS_REGION = "inters"


@dataclass
class ExecutionPlan:
    """How to traverse the kernel's loops.

    ``schedule[t][pos]`` — when set — gives the iterations of loop
    ``pos`` inside tile ``t``; the executor then runs tiles outermost
    (the paper's sparse-tiled executor).  Without it every loop runs
    ``0..n-1``.
    """

    schedule: Optional[Sequence[Sequence[np.ndarray]]] = None

    @staticmethod
    def identity() -> "ExecutionPlan":
        return ExecutionPlan()

    def validate_schedule(self, data: KernelData) -> None:
        """The schedule partitions every loop of ``data``: one offset
        comparison per loop for a marshalled schedule, the full check
        for a hand-built list of tiles."""
        if self.schedule is not None:
            as_tile_schedule(self.schedule, data.loop_sizes())


def _emit_loop(
    builder: TraceBuilder,
    data: KernelData,
    pos: int,
    iters: np.ndarray,
    mark_writes: bool = False,
) -> None:
    desc = data.loops[pos]
    node_write = mark_writes and desc.writes
    if desc.domain == "nodes":
        builder.touch(NODES_REGION, iters, write=node_write)
    else:
        builder.touch_interleaved(
            [INTERS_REGION, NODES_REGION, NODES_REGION],
            [iters, data.left[iters], data.right[iters]],
            writes=[False, node_write, node_write] if mark_writes else None,
        )


def emit_trace(
    data: KernelData,
    plan: Optional[ExecutionPlan] = None,
    num_steps: int = 1,
    mark_writes: bool = False,
) -> AccessTrace:
    """The executor's address trace over ``num_steps`` time steps.

    Node sweeps touch one node record per iteration; the interaction loop
    touches its interaction record (the regrouped ``left``/``right`` pair)
    plus both endpoint node records — matching the paper's executors with
    inter-array regrouping applied.  With ``mark_writes`` the trace carries
    store flags derived from the kernel IR (any WRITE/UPDATE access in the
    loop marks its node-record touches), enabling write-back accounting.
    """
    plan = plan or ExecutionPlan.identity()
    plan.validate_schedule(data)
    builder = TraceBuilder()
    builder.add_region(NODES_REGION, data.num_nodes, data.node_record_bytes)
    builder.add_region(INTERS_REGION, data.num_inter, data.inter_record_bytes)

    for _step in range(num_steps):
        if plan.schedule is not None:
            for tile in plan.schedule:
                for pos in range(len(data.loops)):
                    if len(tile[pos]):
                        _emit_loop(builder, data, pos, tile[pos], mark_writes)
        else:
            for pos, size in enumerate(data.loop_sizes()):
                _emit_loop(
                    builder, data, pos, np.arange(size, dtype=np.int64),
                    mark_writes,
                )
    return builder.build()


def run_numeric(
    data: KernelData,
    num_steps: int = 1,
    backend: Optional[str] = None,
    sanitize: Optional[bool] = None,
) -> KernelData:
    """Execute the kernel arithmetic in place (plan-independent result).

    Every interaction-loop update in the benchmarks is a reduction, so the
    numeric result does not depend on the iteration order; executing with
    the (possibly transformed) index arrays and payload layout *in place*
    is the transformed executor of the paper's Figure 13.  Returns ``data``.

    ``backend`` selects the executor tier (``numpy`` | ``c``; argument >
    ``REPRO_EXECUTOR_BACKEND`` > ``numpy``).  Both tiers are emitted
    from the kernel's spec, proven by the IR verifier at bind, and
    bit-identical to each other; ``sanitize`` (argument >
    ``REPRO_EXECUTOR_SANITIZE``) selects the bounds-guarded build, which
    traps corrupted index arrays as :class:`~repro.errors.
    ExecutorBoundsError` instead of corrupting memory.
    """
    from repro.lowering.executor import compile_executor

    compiled = compile_executor(
        data.kernel_name, backend=backend, sanitize=sanitize
    )
    compiled.run(data.arrays, data.left, data.right, num_steps=num_steps)
    return data


def run_numeric_wavefront(
    data: KernelData,
    schedule: Sequence[Sequence[np.ndarray]],
    waves=None,
    num_steps: int = 1,
    parallel: bool = True,
    backend: Optional[str] = None,
    sanitize: Optional[bool] = None,
    scheduler: Optional[str] = None,
    dag=None,
    num_threads: Optional[int] = None,
) -> KernelData:
    """Execute the kernel arithmetic tile by tile, in ascending tile id.

    ``schedule[t][pos]`` are the iterations of loop ``pos`` inside tile
    ``t`` — a :meth:`TilingFunction.schedule` (marshalled once, passed
    by pointer on every call) or a hand-built list of tiles (marshalled
    and checked on every call).  This is one bind and one call:
    ``backend`` / ``sanitize`` pass unresolved to
    :func:`~repro.lowering.executor.compile_executor` (argument >
    ``REPRO_EXECUTOR_BACKEND`` / ``REPRO_EXECUTOR_SANITIZE`` > default),
    and every tier runs the paper's Figure 14 loop: per tile in
    ascending id, each loop of the tile in program order.

    The reduction commits apply in one order, fixed by the schedule, so
    every tier produces bit-identical payloads (asserted by the test
    suite).  Cross-step dependences are covered by the barrier between
    time steps.  Returns ``data``.

    ``waves``, ``scheduler``, ``dag``, ``num_threads`` and ``parallel``
    select nothing (an unknown ``scheduler`` name is still a
    ValidationError): the end-to-end harness still passes them.
    """
    from repro.lowering.executor import compile_executor

    compiled = compile_executor(
        data.kernel_name,
        backend=backend,
        tiled=True,
        sanitize=sanitize,
        scheduler=scheduler,
    )
    compiled.run(
        data.arrays, data.left, data.right, schedule, num_steps=num_steps
    )
    return data
