"""Extension: vectorized cache simulation + parallel grid execution.

The evaluation pipeline's cost is dominated by trace simulation: the
per-access oracle (``tests/cachesim/oracle.py``, the "reference" side
below) walks every access through a Python LRU loop, the engine
(:mod:`repro.cachesim.simd`) classifies whole traces with
stack-distance counting in NumPy.  This benchmark measures, on the
Figure-6 moldyn trace (the largest of the evaluation):

* per-level simulator throughput (accesses/second, reference vs
  vectorized) for both machines' L1/L2 streams;
* end-to-end ``simulate_cost`` wall clock per machine (identical cycle
  counts asserted), the oracle patched in as the hierarchy's level
  engine;
* the whole Figure-6 grid: serial pipeline on the oracle vs the parallel
  runner on the vectorized engine — both axes, composed.

Timing protocol: reference and vectorized runs are *interleaved* and the
minimum over rounds is reported, so container noise (which swings the
Python loop by 2x run to run) cannot favor either side systematically.
Machine-readable results land in ``benchmarks/results/BENCH_simd.json``.
"""

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import save_and_print
from repro.cachesim import hierarchy
from repro.cachesim.machines import MACHINES
from repro.cachesim.model import simulate_cost
from repro.cachesim.simd import simulate_level
from repro.eval import experiments
from repro.eval.figures import FIGURE_COMPOSITIONS
from repro.eval.parallel import run_grid_parallel
from repro.kernels.datasets import DEFAULT_SCALE
from repro.runtime.executor import ExecutionPlan, emit_trace
from tests.cachesim import oracle

ROUNDS = 5
JOBS = max(2, min(4, os.cpu_count() or 2))

#: Conservative CI floors — the JSON records the actual measured
#: speedups (an order of magnitude on this trace for the L1 streams).
#: The pipeline floor only guards "parallel is not slower": the grid's
#: wall clock is dominated by inspector and dataset-generation work
#: (Amdahl), and CI containers may expose two throttled cores, so the
#: honest multiplier there is recorded in the JSON, not asserted.
MIN_LEVEL_SPEEDUP = 3.0
MIN_E2E_SPEEDUP = 3.0
MIN_PIPELINE_SPEEDUP = 0.75


def _figure6_trace():
    data = experiments._kernel_data("moldyn", "mol1", DEFAULT_SCALE, 42)
    return emit_trace(data, ExecutionPlan.identity(), num_steps=1)


def _on_oracle(fn, *args):
    """``fn(*args)`` with the oracle as the hierarchy's level engine."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hierarchy, "simulate_level", oracle.simulate_level)
        return fn(*args)


def _interleaved_min(fn_a, fn_b, rounds=ROUNDS):
    best_a = best_b = float("inf")
    out_a = out_b = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out_a = fn_a()
        t1 = time.perf_counter()
        out_b = fn_b()
        t2 = time.perf_counter()
        best_a = min(best_a, t1 - t0)
        best_b = min(best_b, t2 - t1)
    return best_a, best_b, out_a, out_b


def _level_rows(trace):
    rows = []
    for machine in MACHINES.values():
        lines = trace.line_sequence(machine.l1.line_bytes)
        for config in machine.levels:
            ref_t, vec_t, ref, vec = _interleaved_min(
                lambda: oracle.simulate_level(config, lines),
                lambda: simulate_level(config, lines),
            )
            assert ref.stats.misses == vec.stats.misses
            assert np.array_equal(ref.miss_lines, vec.miss_lines)
            rows.append(
                {
                    "machine": machine.name,
                    "level": config.name,
                    "accesses": int(len(lines)),
                    "reference_ms": ref_t * 1e3,
                    "vectorized_ms": vec_t * 1e3,
                    "reference_mps": len(lines) / ref_t / 1e6,
                    "vectorized_mps": len(lines) / vec_t / 1e6,
                    "speedup": ref_t / vec_t,
                }
            )
            lines = vec.miss_lines  # the next level's stream
    return rows


def _e2e_rows(trace):
    rows = []
    for machine in MACHINES.values():
        ref_t, vec_t, ref, vec = _interleaved_min(
            lambda: _on_oracle(simulate_cost, trace, machine),
            lambda: simulate_cost(trace, machine),
        )
        assert ref.cycles == vec.cycles
        rows.append(
            {
                "machine": machine.name,
                "reference_ms": ref_t * 1e3,
                "vectorized_ms": vec_t * 1e3,
                "speedup": ref_t / vec_t,
                "cycles": int(vec.cycles),
            }
        )
    return rows


def _clear_experiment_caches():
    experiments.run_cell.cache_clear()
    experiments._baseline_cost.cache_clear()
    experiments._kernel_data.cache_clear()


def _figure6_pipeline():
    """Whole-grid wall clock: serial on the oracle vs parallel vectorized.

    The parallel+vectorized phase runs first so its worker processes
    fork from a *cold* parent (no memoized cells to inherit); caches are
    cleared between phases for the same reason.
    """
    _clear_experiment_caches()
    t0 = time.perf_counter()
    fast = run_grid_parallel(
        "power3", FIGURE_COMPOSITIONS, scale=DEFAULT_SCALE,
        jobs=JOBS,
    )
    fast_t = time.perf_counter() - t0

    _clear_experiment_caches()
    t0 = time.perf_counter()
    slow = _on_oracle(
        experiments.run_grid, "power3", FIGURE_COMPOSITIONS, DEFAULT_SCALE
    )
    slow_t = time.perf_counter() - t0
    _clear_experiment_caches()

    assert [r.executor_cycles for r in fast] == [
        r.executor_cycles for r in slow
    ], "vectorized grid must reproduce the reference cycle counts"
    return {
        "cells": len(fast),
        "jobs": JOBS,
        "serial_reference_s": slow_t,
        "parallel_vectorized_s": fast_t,
        "speedup": slow_t / fast_t,
    }


def run_experiment():
    trace = _figure6_trace()
    return {
        "benchmark": "simd_and_parallel_runner",
        "trace": "figure6 moldyn/mol1 identity",
        "scale": DEFAULT_SCALE,
        "rounds": ROUNDS,
        "protocol": "interleaved min-of-rounds",
        "levels": _level_rows(trace),
        "end_to_end": _e2e_rows(trace),
        "figure6_pipeline": _figure6_pipeline(),
    }


def test_ext_simd(benchmark, results_dir):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    lines = [
        "Extension: vectorized cache simulation + parallel grid runner",
        f"  trace: {results['trace']} ({results['levels'][0]['accesses']} "
        f"record accesses at L1)",
        "  per-level simulator throughput (interleaved min "
        f"of {ROUNDS}):",
    ]
    for r in results["levels"]:
        lines.append(
            f"    {r['machine']}/{r['level']}: "
            f"{r['reference_mps']:.2f} -> {r['vectorized_mps']:.2f} M acc/s "
            f"({r['speedup']:.1f}x, {r['reference_ms']:.1f} -> "
            f"{r['vectorized_ms']:.1f} ms)"
        )
    lines.append("  end-to-end simulate_cost:")
    for r in results["end_to_end"]:
        lines.append(
            f"    {r['machine']}: {r['reference_ms']:.1f} -> "
            f"{r['vectorized_ms']:.1f} ms ({r['speedup']:.1f}x, cycles "
            f"identical)"
        )
    p = results["figure6_pipeline"]
    lines.append(
        f"  figure6 grid ({p['cells']} cells): serial reference "
        f"{p['serial_reference_s']:.1f}s -> parallel vectorized "
        f"{p['parallel_vectorized_s']:.1f}s with {p['jobs']} jobs "
        f"({p['speedup']:.1f}x)"
    )
    save_and_print(results_dir, "ext_simd", "\n".join(lines))

    path = results_dir / "BENCH_simd.json"
    path.write_text(json.dumps(results, indent=2) + "\n")

    for r in results["levels"]:
        assert r["speedup"] >= MIN_LEVEL_SPEEDUP, r
    for r in results["end_to_end"]:
        assert r["speedup"] >= MIN_E2E_SPEEDUP, r
    assert p["speedup"] >= MIN_PIPELINE_SPEEDUP, p
    # The headline claim: on the Figure-6 moldyn trace the new pipeline
    # (vectorized engine x parallel runner) is an order of magnitude
    # faster than the old one.
    assert max(r["speedup"] for r in results["levels"]) >= 10.0 or (
        p["speedup"] >= 10.0
    ), "expected a >=10x axis on the Figure-6 moldyn trace"
