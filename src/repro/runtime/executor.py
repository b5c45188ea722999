"""Executors: trace emission and numeric execution under a plan.

An :class:`ExecutionPlan` is the run-time counterpart of the transformed
unified iteration space: either per-loop iteration orders (possibly
identity — after the inspector has physically remapped the arrays, the
transformed executor of the paper's Figure 13 runs plain ``0..n-1``
loops), or a sparse-tile schedule (Figure 14's ``do t / do x in
sched(t,l)``).

``emit_trace`` produces the address trace the cache simulator prices;
``run_numeric`` executes the actual arithmetic for end-to-end validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cachesim.trace import AccessTrace, TraceBuilder
from repro.errors import ValidationError
from repro.kernels.data import KernelData
from repro.kernels.executors import run_steps
from repro.transforms.tile_schedule import as_tile_schedule

NODES_REGION = "nodes"
INTERS_REGION = "inters"


@dataclass
class ExecutionPlan:
    """How to traverse the kernel's loops.

    ``loop_orders[pos]`` is the iteration sequence of loop ``pos`` (``None``
    means ``0..n-1``).  ``schedule[t][pos]`` — when set — gives the
    iterations of loop ``pos`` inside tile ``t``; the executor then runs
    tiles outermost (the paper's sparse-tiled executor).
    """

    loop_orders: Optional[List[Optional[np.ndarray]]] = None
    schedule: Optional[Sequence[Sequence[np.ndarray]]] = None

    @staticmethod
    def identity() -> "ExecutionPlan":
        return ExecutionPlan()

    def order_for(self, data: KernelData, pos: int) -> np.ndarray:
        size = data.loop_sizes()[pos]
        if self.loop_orders is None or self.loop_orders[pos] is None:
            return np.arange(size, dtype=np.int64)
        order = self.loop_orders[pos]
        if len(order) != size:
            raise ValidationError(
                f"loop {pos} order has {len(order)} entries, expected {size}"
            )
        return order

    def validate_schedule(self, data: KernelData) -> None:
        """The schedule partitions every loop of ``data``: one offset
        comparison per loop for a marshalled schedule, the full check
        for a hand-built list of tiles."""
        if self.schedule is not None:
            as_tile_schedule(self.schedule, data.loop_sizes())


def _loop_writes_nodes(data: KernelData, pos: int) -> bool:
    """Does any statement of the loop write/update a node record?"""
    from repro.kernels.specs import kernel_by_name

    kernel = kernel_by_name(data.kernel_name)
    return any(
        access.kind.writes
        for stmt in kernel.loops[pos].statements
        for access in stmt.accesses
    )


def _emit_loop(
    builder: TraceBuilder,
    data: KernelData,
    pos: int,
    iters: np.ndarray,
    mark_writes: bool = False,
) -> None:
    desc = data.loops[pos]
    node_write = mark_writes and _loop_writes_nodes(data, pos)
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
            for pos in range(len(data.loops)):
                _emit_loop(
                    builder, data, pos, plan.order_for(data, pos), mark_writes
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

    ``backend`` selects the executor tier (``library`` | ``numpy`` | ``c``;
    argument > ``REPRO_EXECUTOR_BACKEND`` > ``library``).  Compiled
    backends are bit-identical to the library step functions, verified by
    the IR verifier at bind; ``sanitize`` (argument >
    ``REPRO_EXECUTOR_SANITIZE``) selects the bounds-guarded build, which
    traps corrupted index arrays as :class:`~repro.errors.
    ExecutorBoundsError` instead of corrupting memory.
    """
    return run_steps(data, num_steps, backend=backend, sanitize=sanitize)


def run_numeric_wavefront(
    data: KernelData,
    schedule: Sequence[Sequence[np.ndarray]],
    waves=None,
    num_steps: int = 1,
    parallel: bool = True,
    max_workers: Optional[int] = None,
    backend: Optional[str] = None,
    sanitize: Optional[bool] = None,
    scheduler: Optional[str] = None,
    dag=None,
    num_threads: Optional[int] = None,
) -> KernelData:
    """Execute the kernel arithmetic tile by tile, wave by wave.

    ``schedule[t][pos]`` are the iterations of loop ``pos`` inside tile
    ``t`` — a :meth:`TilingFunction.schedule` (marshalled once, passed
    by pointer on every call) or a hand-built list of tiles (marshalled
    and checked on every call); ``waves`` is a
    :class:`~repro.transforms.parallel.WavefrontSchedule` over the tiles
    (``None`` treats every tile as its own wave — plain sequential tile
    order).  This is one bind and one call: ``backend`` / ``sanitize`` /
    ``scheduler`` pass unresolved to
    :func:`~repro.lowering.executor.compile_executor` (argument > the
    ``REPRO_EXECUTOR_*`` variable > default).  ``scheduler`` picks the
    driver at run time over one compiled artifact: ``"wave"`` (the
    default) runs the groups of ``waves`` level-synchronously; under
    ``"dynamic"`` the commit order is the one of ``dag`` (a
    :class:`~repro.lowering.schedule.TileDAG`; defaults to the
    conservative barrier DAG built from ``waves``), which the C tier's
    counter pool runs by releasing a tile as soon as its dependence
    counter reaches zero, and the Python tiers run wave by wave.  A
    ``dag`` whose order contradicts ``waves`` is a ``ValidationError``.

    Either way the reduction commits apply in one order, fixed by the
    schedule — never by thread timing — so every tier, scheduler and
    worker count produces bit-identical payloads (asserted by the test
    suite).  Cross-step dependences are covered by the barrier between
    time steps.  Returns ``data``.

    ``parallel=False`` runs on one thread; otherwise ``num_threads``
    (else ``max_workers``, else ``REPRO_EXECUTOR_THREADS``, else the
    visible cores) bounds the workers of the C counter pool.  The C wave
    loop and the Python tiers are serial either way.
    """
    from repro.lowering.executor import compile_executor

    compiled = compile_executor(
        data.kernel_name,
        backend=backend,
        tiled=True,
        sanitize=sanitize,
        scheduler=scheduler,
    )
    if not parallel:
        num_threads = 1
    elif num_threads is None:
        num_threads = max_workers
    compiled.run(
        data.arrays,
        data.left,
        data.right,
        schedule,
        None if waves is None else waves.groups(),
        num_steps=num_steps,
        dag=dag,
        num_threads=num_threads,
    )
    return data
