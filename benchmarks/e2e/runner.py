"""Drive one workload: set-up, warm-up, three timed rounds, result.

Only ``Workload.execute`` is inside a timed region.  Machine-speed probes
run between ops, about four a second; ``stats.summarize_rounds`` turns the
raw samples into the metrics.  With a tracer, one round runs untraced and the
same ops run again traced, with a seeded sample of ops decomposed into
child spans.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e.probe import PROBE_REF_MS, SpeedProbe
from benchmarks.e2e.stats import RoundSamples, speed_factor, summarize_rounds
from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import Op, Workload

#: A probe runs between ops whenever this long has passed since the last
#: one ended: machine speed on the shared box moves within a second, and
#: one probe alone is 15% noisy.
PROBE_INTERVAL_S = 0.2

#: Share of a traced round's ops that are decomposed into child spans.
DECOMPOSED_SHARE = 0.1


class Pacer:
    """Runs the speed probe when one is due and keeps the time it took."""

    def __init__(self, workload: Workload) -> None:
        self.probe = SpeedProbe()
        self.ref_ms = PROBE_REF_MS[workload.name]
        self.spent_s = 0.0
        self._last = float("-inf")

    def due(self) -> bool:
        return time.perf_counter() - self._last >= PROBE_INTERVAL_S

    def run(self) -> Tuple[float, float]:
        """One probe; returns its (wall, CPU) milliseconds."""
        wall_ms, cpu_ms = self.probe()
        self._last = time.perf_counter()
        self.spent_s += wall_ms / 1e3
        return wall_ms, cpu_ms


@dataclass
class Result:
    """What one run measured; ``metrics`` maps names to values."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _timed(workload: Workload, op: Op, samples: Optional[RoundSamples], tracer=None):
    """One op: untimed prepare, timed execute, untimed check.  An exception
    from the program is a failed op, not a crashed benchmark."""
    workload.prepare(op)
    error = None
    out = None
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        if tracer is None:
            out = workload.execute(op)
        else:
            with tracer.span(f"op.{workload.name}", op.id, layer="op"):
                out = workload.execute(op)
    except Exception as exc:  # noqa: BLE001 - boundary: recorded and counted
        error = exc
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if error is not None:
        ok = workload.fail(op, f"{type(error).__name__}: {error}")
    else:
        ok = workload.check(op, out)
    if samples is not None:
        samples.wall_s.append(wall)
        samples.cpu_s.append(cpu)
        samples.failed += 0 if ok else 1
    return ok


def run_round(
    workload: Workload,
    ops: List[Op],
    pacer: Pacer,
    tracer: Optional[Tracer] = None,
    decompose_ids=(),
) -> RoundSamples:
    samples = RoundSamples()
    gc.collect()
    gc.disable()  # a collection inside one op is noise, not the program
    try:
        samples.add_probe(*pacer.run())
        for op in ops:
            _timed(workload, op, samples, tracer)
            if tracer is not None and op.id in decompose_ids:
                workload.decompose(op, tracer)
            if pacer.due():
                samples.add_probe(*pacer.run())
        if samples.probe_at[-1] != samples.ops:
            samples.add_probe(*pacer.run())
    finally:
        gc.enable()
    return samples


def run_workload(
    workload: Workload,
    process_start: float,
    trace_path=None,
) -> Result:
    """Run ``workload`` end to end; traced when ``trace_path`` is given."""
    result = Result()
    pacer = Pacer(workload)
    setup_probes: List[float] = []

    def tick() -> None:
        if pacer.due():
            setup_probes.append(pacer.run()[0])

    workload.tick = tick
    try:
        tick()
        workload.setup()
        for op in workload.warmup():
            if not _timed(workload, op, None):
                raise RuntimeError(
                    f"warm-up op failed: {workload.failures[-1]}"
                )
            tick()
        workload.between_rounds()
        setup_probes.append(pacer.run()[0])
        setup_raw_s = time.perf_counter() - process_start - pacer.spent_s
        setup_factor = speed_factor(pacer.ref_ms, setup_probes)

        rounds = workload.rounds()
        if trace_path is None:
            measured = []
            for index, ops in enumerate(rounds):
                if index:
                    workload.between_rounds()
                measured.append(run_round(workload, ops, pacer))
            summary = summarize_rounds(measured, pacer.ref_ms)
        else:
            measured, summary = _traced(workload, rounds[0], pacer, trace_path, result)
    finally:
        workload.close()

    result.attempted = sum(r.ops for r in measured)
    result.failed = sum(r.failed for r in measured)
    result.failures = list(workload.failures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace_path is None:
        result.metrics = {
            "setup_s": setup_raw_s * setup_factor,
            "op_p50_ms": summary["op_p50_ms"],
            "op_p95_ms": summary["op_p95_ms"],
            "ops_per_s": summary["ops_per_s"],
            "op_cpu_ms": summary["op_cpu_ms"],
            "peak_rss_mb": peak_rss_mb,
        }
        result.info = {
            "raw_setup_s": setup_raw_s,
            "setup_probes": float(len(setup_probes)),
            "raw_op_p50_ms": summary["raw_op_p50_ms"],
            "raw_op_p95_ms": summary["raw_op_p95_ms"],
            "speed_factor": summary["speed_factor"],
            "probe_ms": summary["probe_ms"],
            "probes": summary["probes"],
            "timed_ops": summary["timed_ops"],
        }
    else:
        result.metrics.update(
            {
                "harness.probe_ms": summary["probe_ms"],
                "harness.speed_factor": summary["speed_factor"],
                "harness.raw_op_p50_ms": summary["raw_op_p50_ms"],
                "harness.raw_op_p95_ms": summary["raw_op_p95_ms"],
                "harness.timed_ops": summary["timed_ops"],
                "harness.op_fail_ratio": result.failed / max(1, result.attempted),
            }
        )
    return result


def _traced(workload, ops, pacer, trace_path, result):
    """One untraced round, then the same ops traced; returns both rounds
    (both ran the checks) and the summary of the untraced one, whose
    timings are the ones of record."""
    untraced = run_round(workload, ops, pacer)
    workload.between_rounds()
    count = max(1, int(len(ops) * DECOMPOSED_SHARE))
    chosen = workload.rng.permutation(len(ops))[:count]
    decompose_ids = {ops[i].id for i in chosen}
    with ThreadPoolExecutor(max_workers=1) as helper:
        tracer = Tracer(helper)
        traced = run_round(workload, ops, pacer, tracer, decompose_ids)

    summary = summarize_rounds([untraced], pacer.ref_ms)
    traced_summary = summarize_rounds([traced], pacer.ref_ms)
    result.metrics["harness.trace_overhead_ratio"] = (
        traced_summary["op_p50_ms"] / summary["op_p50_ms"]
    )
    result.metrics["harness.decomp_ratio"] = decomposition_ratio(tracer)
    tracer.count("ops", len(ops))
    tracer.count("decomposed_ops", len(decompose_ids))
    tracer.dump(trace_path, workload=workload.name, seed=workload.seed)
    print(f"trace: {len(tracer.spans)} spans written to {trace_path}", file=sys.stderr)
    return [untraced, traced], summary


def decomposition_ratio(tracer: Tracer) -> float:
    """Median over decomposed ops of (sum of the re-issued calls' spans) /
    (the op's own root span): how much of an op the decomposition explains."""
    roots = {s.op_id: s for s in tracer.spans if s.layer == "op"}
    ratios = []
    for span in tracer.spans:
        if span.name != "decomposed":
            continue
        children = sum(c.duration for c in tracer.children(span.id))
        ratios.append(children / roots[span.op_id].duration)
    return statistics.median(ratios) if ratios else float("nan")
