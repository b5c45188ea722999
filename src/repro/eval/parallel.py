"""Parallel experiment runner: fan a figure grid across worker processes.

A figure grid is embarrassingly parallel — every (kernel, dataset,
machine, composition) cell is an independent inspector + trace +
simulation pipeline — so :func:`run_grid_parallel` dispatches cells to a
``ProcessPoolExecutor`` and reassembles the rows in the exact order the
serial :func:`repro.eval.experiments.run_grid` would produce them.
Determinism is structural, not incidental:

* the task list is built by the same triple loop as the serial runner,
  and ``executor.map`` returns results in submission order, so the row
  order (and therefore every formatted report) is byte-identical to a
  serial run;
* every cell is itself deterministic (fixed seeds, content-addressed
  inspector pipeline), so *values* match too.

Workers amortize shared state across the cells they are handed: the
initializer installs a per-worker :class:`~repro.plancache.PlanCache`
(memory tier only — no cross-process coordination needed), so a worker
that sees two cells with the same (dataset, composition) fingerprint
replays the realized plan instead of re-running inspector stages, and
the ``lru_cache`` layers of :mod:`repro.eval.experiments` (kernel data,
baseline costs) persist for the worker's lifetime.

Degradation: process pools can be unavailable or break (sandboxed
environments without working ``fork``/semaphores, pickling regressions,
workers OOM-killed mid-grid).  In the spirit of the runtime's
fault-degradation policies, :func:`run_grid_parallel` treats all of those
as *degradable* conditions — it logs a warning and falls back to the
serial runner, which produces the identical rows — rather than failing
the experiment.
"""

from __future__ import annotations

import os
import warnings
from typing import List, Optional, Tuple

#: Task tuple: (kernel, dataset, machine, composition, scale, remap).
_CellTask = Tuple[str, str, str, str, int, str]


def default_jobs() -> int:
    """Worker count when the caller does not choose: one per CPU."""
    return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Worker-side plumbing (module-level so it pickles by reference).


def _init_worker() -> None:
    """Per-worker initialization: plan-cache reuse.

    Runs once per worker process.  The plan cache is memory-tier only:
    each worker keeps its own, so there is no cross-process locking, and
    a worker handed several cells sharing an inspector fingerprint
    (e.g. the same composition at two machines) binds the cached plan
    instead of re-running the stages.
    """
    try:
        from repro.eval import experiments
        from repro.plancache import PlanCache

        experiments.set_plan_cache(PlanCache(use_disk=False))
    except Exception:  # pragma: no cover - cache reuse is best-effort
        pass


def _run_cell_task(task: _CellTask):
    from repro.eval.experiments import run_cell

    kernel, dataset, machine, composition, scale, remap = task
    return run_cell(
        kernel, dataset, machine, composition, scale=scale, remap=remap
    )


# ---------------------------------------------------------------------------
# The public runner.


def grid_tasks(
    machine: str,
    compositions: Tuple[str, ...],
    scale: int,
    remap: str = "once",
    kernels: Optional[Tuple[str, ...]] = None,
) -> List[_CellTask]:
    """The grid's cells, in the serial runner's canonical order."""
    from repro.eval.experiments import BENCHMARK_DATASETS

    tasks: List[_CellTask] = []
    for kernel, datasets in BENCHMARK_DATASETS.items():
        if kernels is not None and kernel not in kernels:
            continue
        for dataset in datasets:
            for composition in compositions:
                tasks.append(
                    (kernel, dataset, machine, composition, scale, remap)
                )
    return tasks


def run_grid_parallel(
    machine: str,
    compositions: Tuple[str, ...],
    scale: Optional[int] = None,
    remap: str = "once",
    kernels: Optional[Tuple[str, ...]] = None,
    jobs: Optional[int] = None,
):
    """Run a figure grid across ``jobs`` worker processes.

    Returns the same rows, in the same order, as the serial
    :func:`~repro.eval.experiments.run_grid` — callers can swap one for
    the other (and tests assert the formatted reports are byte-equal).
    ``jobs=None`` uses one worker per CPU; ``jobs<=1`` runs serially in
    process.  Any pool-level failure degrades to the serial runner.
    """
    from repro.kernels.datasets import DEFAULT_SCALE

    if scale is None:
        scale = DEFAULT_SCALE
    jobs = default_jobs() if jobs is None else int(jobs)
    tasks = grid_tasks(machine, compositions, scale, remap, kernels)

    if jobs <= 1 or len(tasks) <= 1:
        return _run_serial(tasks)

    # Hand each worker whole same-dataset runs of the task list: the
    # grid is dataset-major, so chunking by the composition count keeps
    # a dataset's cells on one worker, whose memoized kernel data and
    # baseline cost then serve every composition (instead of every
    # worker regenerating every dataset).
    chunksize = max(
        1,
        min(len(compositions), -(-len(tasks) // (2 * jobs))),
    )
    try:
        return _run_pool(tasks, min(jobs, len(tasks)), chunksize)
    except _POOL_ERRORS as exc:  # degrade, never fail the experiment
        warnings.warn(
            f"parallel grid runner degraded to serial execution: {exc!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        return _run_serial(tasks)


def _run_serial(tasks: List[_CellTask]):
    return [_run_cell_task(task) for task in tasks]


def _run_pool(tasks: List[_CellTask], jobs: int, chunksize: int = 1):
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_init_worker,
    ) as pool:
        # map() yields results in submission order: deterministic rows.
        return list(pool.map(_run_cell_task, tasks, chunksize=chunksize))


def _pool_errors():
    import pickle
    from concurrent.futures.process import BrokenProcessPool

    return (BrokenProcessPool, pickle.PicklingError, OSError, ImportError)


_POOL_ERRORS = _pool_errors()


def worker_pool_health(jobs: int = 2) -> Tuple[bool, str]:
    """Probe whether process pools work here (``repro doctor``).

    Returns ``(ok, message)``; never raises — a sandbox that cannot
    spawn workers is reported, not crashed on.
    """
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            echoed = list(pool.map(_echo, range(jobs)))
        if echoed != list(range(jobs)):
            return False, f"worker echo mismatch: {echoed!r}"
        return True, f"{jobs} workers spawned and responsive"
    except Exception as exc:
        return False, f"process pool unavailable ({exc!r}); grids run serially"


def _echo(value: int) -> int:
    return value
