"""Every workload and metric the harness prints, declared once.

``BENCHMARK.json`` is generated from this table (``python -m benchmarks.e2e
manifest``) and ``test_harness.py`` holds the two equal, so a metric cannot
be printed without being declared or declared without being printed.

``moves`` records, before anything is measured, which end-to-end metric a
layer metric should move and on which workload (README.md has the prose).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Program, arguments and the directories that hold the benchmark.
COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

#: Nominal seconds of timed work per run on the box that defined the
#: benchmark; op counts are derived from ``--seconds / RUN_SECONDS`` so two
#: commits given the same ``--seconds`` do identical work.
RUN_SECONDS = 20

WORKLOADS: List[Tuple[str, str]] = [
    (
        "cold_bind",
        "72 distinct keys bound cold with verification: the paper's inspector "
        "overhead; transforms, inspector, verifier and plan-cache writes work, "
        "lowering and incremental do none",
    ),
    (
        "warm_serve",
        "the same 72 keys served from a warm plan cache: service front end, "
        "validation and cache reads work, no inspector stage runs, so an "
        "inspector speed-up must show nothing here",
    ),
    (
        "exec_steps",
        "compile-time planning in set-up, then time steps of untiled and "
        "tiled NumPy and C executors: the paper's payoff; only lowering and "
        "kernels run in the timed part",
    ),
    (
        "stream_rebind",
        "bounded epoch chains of 2% drift bound incrementally: incremental "
        "patches through the inspector and chained cache writes beside "
        "warm_serve's pure reads and cold_bind's pure writes",
    ),
]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "process start to first timed op (imports, datasets, plan-time work, "
        "compiles, warm-up), speed-corrected by probes at both ends",
    ),
    EndToEnd(
        "op_p50_ms", "ms", "lower", 0.10,
        "median speed-corrected op latency over all timed ops",
    ),
    EndToEnd(
        "op_p95_ms", "ms", "lower", 0.25,
        "95th percentile of the same samples",
    ),
    EndToEnd(
        "ops_per_s", "1/s", "higher", 0.10,
        "median over rounds of ops / corrected busy time",
    ),
    EndToEnd(
        "op_cpu_ms", "ms", "lower", 0.10,
        "median over rounds of process CPU time per op, corrected by the "
        "probes' CPU time",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss at exit, uncorrected",
    ),
]


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


_WARM = "warm_serve/op_p50_ms, ops_per_s"
_COLD = "cold_bind/op_p50_ms"
_SETUP = "exec_steps/setup_s"
_EXEC = "exec_steps/op_p50_ms, ops_per_s"
_STREAM = "stream_rebind/op_p50_ms"

PER_LAYER: List[Layer] = [
    # -- service ------------------------------------------------------------
    Layer("service.parse_ms", "ms", "lower", _WARM),
    Layer("service.frontend_self_ms", "ms", "lower", _WARM),
    Layer("service.digest_ms", "ms", "lower", _WARM),
    Layer("service.queue_ms", "ms", "lower", _WARM),
    Layer("service.handle_resolve_ms", "ms", "lower", _WARM),
    Layer("service.coalesce_fanout_ms", "ms", "lower", _WARM),
    Layer("service.coalesced_ratio", "ratio", "higher", _WARM),
    Layer("service.accounting_violations", "count", "lower", "none (guard)"),
    Layer("service.epoch_advance_ms", "ms", "lower", _STREAM),
    Layer("service.fleet_roundtrip_ms", "ms", "lower", "none until a multi-core runner exists"),
    Layer("service.fleet_spawn_s", "s", "lower", "none until a multi-core runner exists"),
    # -- plancache ----------------------------------------------------------
    Layer("plancache.fingerprint_ms", "ms", "lower", _WARM),
    Layer("plancache.get_hit_ms", "ms", "lower", _WARM),
    Layer("plancache.rehydrate_ms", "ms", "lower", _WARM),
    Layer("plancache.put_ms", "ms", "lower", "cold_bind/ops_per_s, " + _STREAM),
    Layer("plancache.entry_bytes", "bytes", "lower", "peak_rss_mb everywhere"),
    Layer("plancache.hit_ratio", "ratio", "higher", _WARM),
    Layer("plancache.resident_bytes", "bytes", "lower", "peak_rss_mb everywhere"),
    Layer("plancache.disk_put_ms", "ms", "lower", "none (e2e services are memory-tier)"),
    Layer("plancache.disk_get_ms", "ms", "lower", "none (e2e services are memory-tier)"),
    # -- runtime ------------------------------------------------------------
    Layer("runtime.validate_ms", "ms", "lower", "warm_serve/op_p50_ms most, cold_bind a little"),
    Layer("runtime.inspector_ms", "ms", "lower", _COLD),
    Layer("runtime.inspector_self_ms", "ms", "lower", _COLD),
    Layer("runtime.verify_ms", "ms", "lower", _COLD),
    Layer("runtime.touches", "count", "lower", _COLD),
    Layer("runtime.data_moves", "count", "lower", _COLD),
    # -- transforms ---------------------------------------------------------
    Layer("transforms.cpack_ms", "ms", "lower", _COLD),
    Layer("transforms.gpart_ms", "ms", "lower", "cold_bind/op_p50_ms, op_p95_ms"),
    Layer("transforms.lexgroup_ms", "ms", "lower", _COLD),
    Layer("transforms.fst_ms", "ms", "lower", "cold_bind/op_p50_ms, op_p95_ms"),
    Layer("transforms.tilepack_ms", "ms", "lower", _COLD),
    Layer("transforms.schedule_ms", "ms", "lower", _COLD),
    Layer("transforms.wavefront_ms", "ms", "lower", _SETUP),
    # -- compile-time layers ------------------------------------------------
    Layer("uniform.plan_ms", "ms", "lower", _SETUP),
    Layer("analysis.lint_ms", "ms", "lower", _SETUP),
    Layer("analysis.irverify_ms", "ms", "lower", _SETUP),
    Layer("analysis.irverify_warm_ms", "ms", "lower", _SETUP),
    Layer("codegen.inspector_gen_ms", "ms", "lower", _SETUP),
    Layer("codegen.generated_step_ms", "ms", "lower", "none (off every bind path)"),
    # -- lowering -----------------------------------------------------------
    Layer("lowering.compile_cold_ms.numpy", "ms", "lower", _SETUP),
    Layer("lowering.compile_cold_ms.c", "ms", "lower", _SETUP),
    Layer("lowering.compile_warm_ms.c", "ms", "lower", _SETUP),
    Layer("lowering.dag_build_ms", "ms", "lower", _SETUP),
    Layer("lowering.call_overhead_ms.tiled-c", "ms", "lower", _EXEC),
    Layer("lowering.step_ms.untiled-numpy", "ms", "lower", _EXEC),
    Layer("lowering.step_ms.untiled-c", "ms", "lower", _EXEC),
    Layer("lowering.step_ms.tiled-numpy", "ms", "lower", "none (not in the timed mix)"),
    Layer("lowering.step_ms.tiled-c", "ms", "lower", _EXEC),
    Layer("lowering.step_ms.dynamic-c-t1", "ms", "lower", "none (not in the timed mix)"),
    # -- kernels ------------------------------------------------------------
    Layer("kernels.step_ms.library", "ms", "lower", _COLD + " (verification runs it)"),
    Layer("kernels.wavefront_step_ms.library", "ms", "lower", "none (not in the timed mix)"),
    Layer("kernels.dataset_gen_s", "s", "lower", "setup_s everywhere"),
    # -- cachesim -----------------------------------------------------------
    Layer("cachesim.cycles_ratio.moldyn", "ratio", "lower", "none (ordering-quality guard, exact)"),
    Layer("cachesim.cycles_ratio.nbf", "ratio", "lower", "none (ordering-quality guard, exact)"),
    Layer("cachesim.cycles_ratio.irreg", "ratio", "lower", "none (ordering-quality guard, exact)"),
    Layer("cachesim.simulate_ms", "ms", "lower", "none"),
    # -- incremental --------------------------------------------------------
    Layer("incremental.rebind_ms", "ms", "lower", _STREAM),
    Layer("incremental.delta_apply_ms", "ms", "lower", _STREAM),
    Layer("incremental.delta_validate_ms", "ms", "lower", _STREAM),
    Layer("incremental.reverify_ms", "ms", "lower", _STREAM),
    Layer("incremental.dag_repair_ms", "ms", "lower", _STREAM),
    Layer("incremental.patched_ratio", "ratio", "higher", _STREAM),
    Layer("incremental.touch_ratio", "ratio", "lower", _STREAM),
    Layer("incremental.speedup_vs_cold", "ratio", "higher", _STREAM),
    Layer("incremental.depth_ratio", "ratio", "lower", "stream_rebind/peak_rss_mb, op_p95_ms"),
    # -- harness ------------------------------------------------------------
    Layer("harness.probe_ms", "ms", "lower", "none (machine speed)"),
    Layer("harness.speed_factor", "ratio", "higher", "none (machine speed)"),
    Layer("harness.raw_op_p50_ms", "ms", "lower", "the workload's op_p50_ms before correction"),
    Layer("harness.raw_op_p95_ms", "ms", "lower", "the workload's op_p95_ms before correction"),
    Layer("harness.trace_overhead_ratio", "ratio", "lower", "none (traced / untraced op_p50_ms)"),
    Layer("harness.timed_ops", "count", "higher", "none (sample count)"),
    Layer("harness.decomp_ratio", "ratio", "higher", "none (child spans / root span on sampled ops)"),
    Layer("harness.op_fail_ratio", "ratio", "lower", "none (failed / attempted; must be 0)"),
]


def manifest() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}
