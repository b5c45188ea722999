"""Executors: trace emission and numeric execution under a plan.

An :class:`ExecutionPlan` is the run-time counterpart of the transformed
unified iteration space: either the identity (after the inspector has
physically remapped the arrays, the transformed executor of the paper's
Figure 13 runs plain ``0..n-1`` loops), or a sparse-tile schedule
(Figure 14's ``do t / do x in sched(t,l)``).

``emit_trace`` produces the address trace the cache simulator prices
from the lowered program, in :func:`repro.lowering.schedule.tile_walk`'s
order; ``run_numeric`` executes the actual arithmetic for end-to-end
validation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.cachesim.trace import AccessTrace, TraceBuilder
from repro.kernels.data import KernelData
from repro.kernels.specs import kernel_by_name
from repro.lowering.ir import expr_loads, lower_kernel
from repro.lowering.schedule import tile_walk, walk_indices
from repro.transforms.tile_schedule import as_tile_schedule, trivial_schedule

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


@functools.lru_cache(maxsize=None)
def _record_touches(kernel_name: str) -> tuple:
    """Per lowered loop, one iteration's ``(regions, index arrays,
    stores)``: an interaction loop's own record (a load), then a node
    record per distinct index its statements use, in first-appearance
    order (``None``: the loop variable), a store if one updates it."""
    touches = []
    for loop in lower_kernel(kernel_by_name(kernel_name)).loops:
        updated = {stmt.index for stmt in loop.stmts}
        indices = dict.fromkeys(
            access.index
            for stmt in loop.stmts
            for access in [stmt, *expr_loads(stmt.increment)]
        )
        own = [(INTERS_REGION, None, False)] if loop.domain == "inters" else []
        nodes = [(NODES_REGION, i.via, i in updated) for i in indices]
        touches.append(tuple(zip(*(own + nodes))))
    return tuple(touches)


def emit_trace(
    data: KernelData,
    plan: Optional[ExecutionPlan] = None,
    num_steps: int = 1,
    mark_writes: bool = False,
) -> AccessTrace:
    """The executor's address trace over ``num_steps`` time steps.

    A node sweep touches one node record per iteration; an interaction
    loop touches its interaction record (the regrouped ``left``/``right``
    pair) plus one node record per index array it goes through — the
    paper's executors with inter-array regrouping applied.  With
    ``mark_writes`` the trace carries the lowered program's store flags
    (a node record a statement updates), enabling write-back accounting.
    """
    sizes = data.loop_sizes()
    if plan is None or plan.schedule is None:
        schedule = trivial_schedule(tuple(sizes))
    else:
        schedule = as_tile_schedule(plan.schedule, sizes)
    touches = _record_touches(data.kernel_name)
    builder = TraceBuilder()
    builder.add_region(NODES_REGION, data.num_nodes, data.node_record_bytes)
    builder.add_region(INTERS_REGION, data.num_inter, data.inter_record_bytes)
    for _t, pos, iters in tile_walk(schedule, num_steps):
        iters = walk_indices(iters)
        regions, vias, stores = touches[pos]
        builder.touch_interleaved(
            regions,
            [iters if v is None else getattr(data, v)[iters] for v in vias],
            stores if mark_writes else None,
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
