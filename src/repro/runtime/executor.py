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
from typing import List, Optional

import numpy as np

from repro.cachesim.trace import AccessTrace, TraceBuilder
from repro.kernels.data import KernelData
from repro.kernels.executors import run_steps

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
    schedule: Optional[List[List[np.ndarray]]] = None

    @staticmethod
    def identity() -> "ExecutionPlan":
        return ExecutionPlan()

    def order_for(self, data: KernelData, pos: int) -> np.ndarray:
        size = data.loop_sizes()[pos]
        if self.loop_orders is None or self.loop_orders[pos] is None:
            return np.arange(size, dtype=np.int64)
        order = self.loop_orders[pos]
        if len(order) != size:
            raise ValueError(
                f"loop {pos} order has {len(order)} entries, expected {size}"
            )
        return order

    def validate_schedule(self, data: KernelData) -> None:
        if self.schedule is None:
            return
        sizes = data.loop_sizes()
        for pos, size in enumerate(sizes):
            count = sum(len(tile[pos]) for tile in self.schedule)
            if count != size:
                raise ValueError(
                    f"schedule covers {count} iterations of loop {pos}, "
                    f"expected {size}"
                )


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
    schedule: List[List[np.ndarray]],
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
    ``t`` (a :meth:`TilingFunction.schedule`); ``waves`` is a
    :class:`~repro.transforms.parallel.WavefrontSchedule` over the tiles
    (``None`` treats every tile as its own wave — plain sequential tile
    order).  Tiles within a wave share no dependences, so the executor
    runs each kernel phase as a stage across the whole wave:

    * node phases update disjoint iteration subsets — fully parallel;
    * interaction phases split gather/commit: the pure gathers of all
      tiles run concurrently, then the reduction commits apply **in
      ascending tile order**, serially.

    Floating-point reductions reassociate with application *order*, and
    the order here is fixed by tile id — never by thread timing — so
    ``parallel=True`` and ``parallel=False`` produce bit-identical
    payloads (asserted by the test suite).  Cross-step dependences are
    covered by the barrier between time steps.  Returns ``data``.

    ``backend`` selects the executor tier; the compiled backends mirror
    this wave/phase structure exactly (same fixed commit order) and are
    bit-identical, so ``parallel``/``max_workers`` do not apply to them.

    ``scheduler`` selects ``"wave"`` (level-synchronous, the default) or
    ``"dynamic"`` (argument > ``REPRO_EXECUTOR_SCHEDULER`` > wave): the
    dynamic scheduler drops the wave barrier and releases a tile as soon
    as its dependence counter — derived from ``dag`` (a
    :class:`~repro.lowering.schedule.TileDAG`; defaults to the
    conservative barrier DAG built from ``waves``) — reaches zero, while
    committing reductions in the wave executor's exact order, so the
    result stays bit-identical at any ``num_threads``.
    """
    from repro.kernels.executors import PHASE_FUNCTIONS
    from repro.lowering.schedule import resolve_scheduler

    phases = PHASE_FUNCTIONS[data.kernel_name]
    if any(len(tile) != len(phases) for tile in schedule):
        raise ValueError(
            f"schedule tiles must cover {len(phases)} loops of "
            f"{data.kernel_name}"
        )
    for pos, (phase, desc) in enumerate(zip(phases, data.loops)):
        if phase.domain != desc.domain:
            raise ValueError(
                f"phase {pos} domain {phase.domain!r} does not match "
                f"loop domain {desc.domain!r}"
            )

    from repro.lowering.executor import resolve_executor_backend

    resolved = resolve_executor_backend(backend).backend
    sched = resolve_scheduler(scheduler).backend
    if resolved != "library" or sched == "dynamic":
        from repro.lowering.executor import compile_executor

        compiled = compile_executor(
            data.kernel_name,
            backend=resolved,
            tiled=True,
            sanitize=sanitize,
            scheduler=sched,
        )
        kwargs = {}
        if sched == "dynamic":
            if resolved == "library" and not parallel:
                num_threads = 1
            kwargs = {"dag": dag, "num_threads": num_threads}
        compiled.run(
            data.arrays,
            data.left,
            data.right,
            schedule,
            None if waves is None else waves.groups(),
            num_steps=num_steps,
            **kwargs,
        )
        return data

    if waves is None:
        wave_groups = [np.array([t], dtype=np.int64) for t in range(len(schedule))]
    else:
        wave_groups = waves.groups()

    pool = None
    if parallel:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=max_workers)

    def _map(fn, items):
        if pool is None:
            return [fn(item) for item in items]
        return list(pool.map(fn, items))

    arrays, left, right = data.arrays, data.left, data.right
    try:
        for _step in range(num_steps):
            for group in wave_groups:
                tiles = [schedule[int(t)] for t in group]
                for pos, phase in enumerate(phases):
                    work = [t[pos] for t in tiles if len(t[pos])]
                    if not work:
                        continue
                    if phase.domain == "nodes":
                        _map(lambda it: phase.apply(arrays, it), work)
                    else:
                        ends = [(left[it], right[it]) for it in work]
                        payloads = _map(
                            lambda lr: phase.gather(arrays, lr[0], lr[1]),
                            ends,
                        )
                        for (l, r), payload in zip(ends, payloads):
                            phase.commit(arrays, l, r, payload)
    finally:
        if pool is not None:
            pool.shutdown()
    return data
