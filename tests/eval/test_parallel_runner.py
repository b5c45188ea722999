"""The parallel grid runner: determinism, fallback, and health probes.

The contract is byte-level: a parallel grid must render to exactly the
same report text as a serial one (same rows, same order, same values),
and any pool-level failure must degrade to the serial path rather than
failing the experiment.
"""

import numpy as np
import pytest

from repro.eval import parallel as par
from repro.eval.experiments import run_grid
from repro.eval.parallel import (
    default_jobs,
    grid_tasks,
    run_grid_parallel,
    worker_pool_health,
)
from repro.eval.report import format_grid, rows_to_csv

SCALE = 128  # small inputs: the grid is about orchestration, not size
COMPOSITIONS = ("cpack", "gpart")
KERNELS = ("moldyn", "irreg")


@pytest.fixture(scope="module")
def serial_rows():
    return run_grid(
        "power3", COMPOSITIONS, scale=SCALE, kernels=KERNELS
    )


def test_parallel_rows_byte_identical_to_serial(serial_rows):
    rows = run_grid_parallel(
        "power3", COMPOSITIONS, scale=SCALE, kernels=KERNELS, jobs=2
    )
    assert format_grid(rows) == format_grid(serial_rows)
    columns = ["kernel", "dataset", "composition", "executor_cycles"]
    assert rows_to_csv(rows, columns) == rows_to_csv(serial_rows, columns)


def test_run_grid_jobs_dispatches_to_parallel(serial_rows):
    rows = run_grid(
        "power3", COMPOSITIONS, scale=SCALE, kernels=KERNELS, jobs=2
    )
    assert format_grid(rows) == format_grid(serial_rows)


def test_grid_tasks_match_serial_order(serial_rows):
    tasks = grid_tasks("power3", COMPOSITIONS, SCALE, kernels=KERNELS)
    assert [(t[0], t[1], t[3]) for t in tasks] == [
        (r.kernel, r.dataset, r.composition) for r in serial_rows
    ]


def test_broken_pool_degrades_to_serial(serial_rows, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    def _boom(tasks, jobs, chunksize=1):
        raise BrokenProcessPool("worker died")

    monkeypatch.setattr(par, "_run_pool", _boom)
    with pytest.warns(RuntimeWarning, match="degraded to serial"):
        rows = run_grid_parallel(
            "power3", COMPOSITIONS, scale=SCALE, kernels=KERNELS, jobs=2
        )
    assert format_grid(rows) == format_grid(serial_rows)


def test_jobs_one_never_spawns_a_pool(serial_rows, monkeypatch):
    def _boom(*_args):
        raise AssertionError("pool must not be created for jobs=1")

    monkeypatch.setattr(par, "_run_pool", _boom)
    rows = run_grid_parallel(
        "power3", COMPOSITIONS, scale=SCALE, kernels=KERNELS, jobs=1
    )
    assert format_grid(rows) == format_grid(serial_rows)


def test_default_jobs_positive():
    assert default_jobs() >= 1


def test_worker_pool_health_probe():
    ok, message = worker_pool_health(jobs=2)
    # On a healthy box this passes; in a sandbox without pools the probe
    # must *report*, not raise.
    assert isinstance(ok, bool) and message


def test_worker_initializer_installs_plan_cache():
    from repro.eval import experiments

    assert experiments._PLAN_CACHE is None
    try:
        par._init_worker()
        assert experiments._PLAN_CACHE is not None
        assert experiments._PLAN_CACHE.disk is None  # memory tier only
    finally:
        experiments.set_plan_cache(None)
