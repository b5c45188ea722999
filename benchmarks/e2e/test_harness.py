"""Tests of the harness itself (``pytest benchmarks/e2e``; tier-1 collects
only ``tests/``).  Nothing here builds a dataset or binds a plan: the
maths is checked on synthetic samples and the declarations against
``BENCHMARK.json``; ``run.py --check`` is the smoke test of the workloads.
"""

import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.e2e import metrics, reference, stats  # noqa: E402
from benchmarks.e2e.compare import failure_verdict, verdict  # noqa: E402
from benchmarks.e2e.trace import Tracer  # noqa: E402


class TestPercentiles:
    def test_interpolates_between_ranks(self):
        assert stats.percentile([1, 2, 3, 4], 50) == 2.5
        assert stats.percentile([10], 95) == 10
        assert stats.percentile(range(101), 95) == 95
        assert stats.percentile([4, 1, 3, 2], 0) == 1
        assert stats.percentile([4, 1, 3, 2], 100) == 4

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.percentile([1], 101)

    def test_quartile_spread_matches_the_acceptance_rule(self):
        values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
        import statistics

        q1, _, q3 = statistics.quantiles(values, n=4)
        assert stats.quartile_spread(values) == pytest.approx(
            (q3 - q1) / statistics.median(values)
        )


def make_round(wall_s, cpu_s, probe_ms, probe_cpu_ms=None):
    """A round whose probes are spread evenly between its ops; a probe's
    CPU time equals its wall time unless ``probe_cpu_ms`` says otherwise."""
    probes = list(zip(probe_ms, probe_cpu_ms or probe_ms))
    rnd = stats.RoundSamples()
    gaps = len(probes) - 1
    rnd.add_probe(*probes[0])
    for index, (wall, cpu) in enumerate(zip(wall_s, cpu_s), start=1):
        rnd.wall_s.append(wall)
        rnd.cpu_s.append(cpu)
        while len(rnd.probe_ms) - 1 < gaps * index // len(wall_s):
            rnd.add_probe(*probes[len(rnd.probe_ms)])
    return rnd


class TestSpeedCorrection:
    def test_slow_machine_scales_samples_down(self):
        assert stats.speed_factor(30.0, [33.0, 33.0, 33.0]) == pytest.approx(1 / 1.1)
        assert stats.speed_factor(30.0, [30.0]) == 1.0

    def test_uses_the_median_probe_not_the_mean(self):
        assert stats.speed_factor(30.0, [30.0, 30.0, 300.0]) == 1.0

    def test_same_work_at_two_speeds_reads_the_same(self):
        def run_at(slowdown):
            rounds = [
                make_round(
                    [0.1 * slowdown] * 50 + [0.2 * slowdown] * 5,
                    [0.09 * slowdown] * 55,
                    [30.0 * slowdown] * 9,
                )
                for _ in range(3)
            ]
            return stats.summarize_rounds(rounds, probe_ref_ms=30.0)

        fast, slow = run_at(1.0), run_at(1.25)
        for name in ("op_p50_ms", "op_p95_ms", "ops_per_s", "op_cpu_ms"):
            assert slow[name] == pytest.approx(fast[name])
        assert slow["raw_op_p50_ms"] == pytest.approx(1.25 * fast["raw_op_p50_ms"])
        assert fast["op_p50_ms"] == pytest.approx(100.0)
        assert fast["ops_per_s"] == pytest.approx(55 / (50 * 0.1 + 5 * 0.2))
        assert fast["op_cpu_ms"] == pytest.approx(90.0)
        assert fast["timed_ops"] == 165

    def test_a_slow_stretch_is_corrected_where_it_happened(self):
        # The machine runs at half speed for the middle third of the round:
        # ops and probes there both take twice as long.  A single factor
        # per round could not flatten this; the nearest-probe window does.
        speed = [1.0] * 20 + [2.0] * 20 + [1.0] * 20
        rnd = stats.RoundSamples()
        rnd.add_probe(30.0, 30.0)
        for slowdown in speed:
            rnd.wall_s.append(0.1 * slowdown)
            rnd.cpu_s.append(0.1 * slowdown)
            rnd.add_probe(30.0 * slowdown, 30.0 * slowdown)
        factors = rnd.factors(30.0, rnd.probe_ms)
        assert factors[5] == pytest.approx(1.0)
        assert factors[30] == pytest.approx(0.5)
        assert factors[55] == pytest.approx(1.0)
        summary = stats.summarize_rounds([rnd], 30.0)
        assert summary["op_p50_ms"] == pytest.approx(100.0)
        assert summary["raw_op_p50_ms"] == pytest.approx(100.0)  # 40 of 60 are fast
        assert summary["op_p95_ms"] == pytest.approx(100.0)
        assert summary["raw_op_p95_ms"] == pytest.approx(200.0)

    def test_factor_window_is_the_nearest_probes_on_both_sides(self):
        rnd = stats.RoundSamples()
        for value in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
            rnd.add_probe(value, value)
            rnd.wall_s.append(1.0)
            rnd.cpu_s.append(1.0)
        rnd.add_probe(70.0, 70.0)
        # Op 3 ran between probes 40 and 50; two probes each side:
        # 30, 40 | 50, 60 -> median 45.
        assert rnd.factors(45.0, rnd.probe_ms)[3] == pytest.approx(1.0)
        # The first op has only one probe before it: 10 | 20, 30.
        assert rnd.factors(20.0, rnd.probe_ms)[0] == pytest.approx(1.0)

    def test_p95_is_the_pooled_percentile_of_corrected_samples(self):
        wall = [0.010] * 90 + [0.050] * 10
        rnd = make_round(wall, wall, [30.0] * 5)
        summary = stats.summarize_rounds([rnd, rnd, rnd], 30.0)
        assert summary["op_p50_ms"] == pytest.approx(10.0)
        assert summary["op_p95_ms"] == pytest.approx(50.0)
        assert summary["raw_op_p95_ms"] == pytest.approx(50.0)

    def test_a_stolen_core_stretches_wall_time_but_not_cpu_time(self):
        # A neighbour takes the core half the time: every wall time doubles,
        # ops' and probes' alike, and no CPU time changes.  Correcting CPU
        # time by the probes' wall time would halve it.
        calm = make_round([0.1] * 20, [0.1] * 20, [30.0] * 5)
        stolen = make_round([0.2] * 20, [0.1] * 20, [60.0] * 5, [30.0] * 5)
        for rnd in (calm, stolen):
            summary = stats.summarize_rounds([rnd], 30.0)
            assert summary["op_p50_ms"] == pytest.approx(100.0)
            assert summary["op_cpu_ms"] == pytest.approx(100.0)

    def test_one_stalled_round_moves_neither_throughput_nor_cpu(self):
        def rounds(stall):
            return [
                make_round([0.1] * 20, [0.1] * 20, [30.0] * 3),
                make_round([0.1 * stall] * 20, [0.1 * stall] * 20, [30.0] * 3),
                make_round([0.1] * 20, [0.1] * 20, [30.0] * 3),
            ]

        calm = stats.summarize_rounds(rounds(1.0), 30.0)
        stalled = stats.summarize_rounds(rounds(3.0), 30.0)
        assert stalled["ops_per_s"] == pytest.approx(calm["ops_per_s"])
        assert stalled["op_cpu_ms"] == pytest.approx(calm["op_cpu_ms"])

    def test_worsening_sign_follows_the_direction(self):
        assert stats.relative_worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
        assert stats.relative_worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)


class TestCompareVerdicts:
    def test_ok_worse_and_unresolved(self):
        a = [100.0, 101.0, 99.0, 100.5, 99.5]
        assert verdict(a, [x * 1.02 for x in a], "lower", 0.06) == "ok"
        assert verdict(a, [x * 1.10 for x in a], "lower", 0.06) == "worse"
        noisy = [80.0, 120.0, 100.0, 90.0, 115.0]
        assert verdict(noisy, noisy, "lower", 0.06) == "unresolved"
        # Wide spread, but every B run beats every A run: resolved.
        assert verdict(noisy, [x / 2 for x in noisy], "lower", 0.06) == "ok"
        assert verdict(a, [x * 0.90 for x in a], "higher", 0.06) == "worse"

    def test_any_more_failures_is_worse_and_a_failing_baseline_is_no_baseline(self):
        assert failure_verdict(0.0, 0.0) == "ok"
        assert failure_verdict(0.0, 0.001) == "worse"
        assert failure_verdict(0.01, 0.02) == "worse"
        assert failure_verdict(0.01, 0.0) == "unresolved"


class TestSpans:
    def test_self_time_is_duration_minus_child_cover(self):
        tracer = Tracer()
        with tracer.span("runtime.inspector", op_id=7) as parent:
            with tracer.span("transforms.cpack", op_id=7) as first:
                time.sleep(0.002)
            with tracer.span("transforms.fst", op_id=7) as second:
                time.sleep(0.003)
            time.sleep(0.001)
        assert first.parent == parent.id and second.parent == parent.id
        assert parent.parent is None and parent.layer == "runtime"
        expected = parent.duration - first.duration - second.duration
        assert tracer.self_time(parent) == pytest.approx(expected)
        assert tracer.self_time(first) == first.duration
        by_layer = tracer.self_time_by_layer()
        assert by_layer["transforms"] == pytest.approx(
            first.duration + second.duration
        )
        assert sum(by_layer.values()) == pytest.approx(parent.duration)

    def test_overlapping_children_are_not_counted_twice(self):
        tracer = Tracer()
        with tracer.span("a.x", 0) as parent:
            pass
        parent.start, parent.end = 0.0, 10.0
        tracer.spans.append(type(parent)(1, "b.y", "b", 1.0, 6.0, parent.id, 0))
        tracer.spans.append(type(parent)(2, "b.z", "b", 4.0, 8.0, parent.id, 0))
        assert tracer.self_time(parent) == pytest.approx(3.0)

    def test_stage_records_become_back_to_back_children(self):
        from repro.runtime import StageRecord

        tracer = Tracer()
        with tracer.span("runtime.inspector", op_id=4) as parent:
            pass
        parent.start, parent.end = 10.0, 11.0
        tracer.add_stages(
            parent,
            [StageRecord(0, "cpack", "ok", 0.25), StageRecord(1, "fst", "ok", 0.5)],
        )
        cpack, fst = tracer.children(parent.id)
        assert (cpack.name, cpack.layer, cpack.op_id) == ("runtime.stage.cpack", "runtime", 4)
        assert (cpack.start, cpack.end) == (10.0, 10.25)
        assert (fst.start, fst.end) == (10.25, 10.75)
        assert tracer.self_time(parent) == pytest.approx(0.25)

    def test_dump_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("service.parse", 3):
            pass
        tracer.count("ops", 2)
        path = tmp_path / "trace.json"
        tracer.dump(path, workload="w", seed=1)
        payload = json.loads(path.read_text())
        assert payload["workload"] == "w" and payload["counts"] == {"ops": 2}
        assert set(payload["spans"][0]) == {
            "id", "name", "layer", "start", "end", "parent", "op_id",
        }


class TestDeclarations:
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_names_and_units_are_valid_and_unique(self):
        names = (
            [n for n, _ in metrics.WORKLOADS]
            + [m.name for m in metrics.END_TO_END]
            + [m.name for m in metrics.PER_LAYER]
        )
        assert len(names) == len(set(names))
        for name in names:
            assert self.NAME.match(name), name
        for metric in metrics.END_TO_END + metrics.PER_LAYER:
            assert self.UNIT.match(metric.unit), metric
            assert metric.better in ("lower", "higher")

    def test_contract_limits(self):
        assert 2 <= len(metrics.WORKLOADS) <= 8
        assert all(len(why) <= 200 and "\n" not in why for _, why in metrics.WORKLOADS)
        assert 1 <= len(metrics.END_TO_END) <= 16
        assert 1 <= len(metrics.PER_LAYER) <= 128
        assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)
        setup = next(m for m in metrics.END_TO_END if m.name == "setup_s")
        assert (setup.unit, setup.better) == ("s", "lower")
        assert setup.bound == max(m.bound for m in metrics.END_TO_END)
        assert 1 <= metrics.RUN_SECONDS <= 60

    def test_every_layer_is_a_repro_package_or_the_harness(self):
        packages = {p.name for p in (ROOT / "src" / "repro").iterdir() if p.is_dir()}
        for metric in metrics.PER_LAYER:
            assert metric.layer in packages | {"harness"}, metric.name
            assert metric.moves

    def test_benchmark_json_is_the_manifest(self):
        on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert on_disk == metrics.manifest()
        assert set(on_disk) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        }

    def test_harness_prints_exactly_the_declared_names(self):
        # Untraced runs print runner.run_workload's metrics; traced runs
        # print the harness.* group plus layers.measure_layers' keys.  Both
        # are literal keys in the sources, so a scan finds them all.
        declared_e2e = {m.name for m in metrics.END_TO_END}
        declared_layers = {m.name for m in metrics.PER_LAYER}
        here = Path(__file__).resolve().parent
        runner_src = (here / "runner.py").read_text()
        layers_src = (here / "layers.py").read_text()
        quoted = re.compile(r'"((?:[a-z]+\.)?[a-z_0-9]+(?:\.[a-z0-9-]+)?)"')
        for name in declared_e2e:
            assert f'"{name}":' in runner_src, name
        printed = set()
        for source in (runner_src, layers_src):
            for match in quoted.finditer(source):
                if match.group(1) in declared_layers:
                    printed.add(match.group(1))
        templated = {
            f"transforms.{n}_ms"
            for n in ("cpack", "lexgroup", "fst", "tilepack")
        } | {f"cachesim.cycles_ratio.{k}" for k in ("moldyn", "nbf", "irreg")}
        assert printed | templated == declared_layers


class TestReference:
    @pytest.mark.parametrize("kernel", ["moldyn", "nbf", "irreg"])
    def test_vectorised_reference_equals_the_plain_loops(self, kernel):
        rng = np.random.default_rng(3)
        nodes, edges = 40, 200
        left = rng.integers(0, nodes, edges)
        right = rng.integers(0, nodes, edges)
        names = {"moldyn": ("x", "vx", "fx"), "nbf": ("x", "f"), "irreg": ("x", "y")}
        arrays = {name: rng.random(nodes) for name in names[kernel]}
        plain = {name: values.copy() for name, values in arrays.items()}
        for _ in range(3):
            reference.step_scalar(kernel, plain, left, right)
        fast = reference.run(kernel, arrays, left, right, 3)
        assert reference.matches(plain, fast)
        assert not reference.matches(plain, arrays)  # the steps did change it

    def test_reference_agrees_with_the_library_executor(self):
        # The one place the reference meets the program outside a run.
        from repro.kernels import generate_dataset, make_kernel_data
        from repro.runtime import run_numeric

        for kernel in ("moldyn", "nbf", "irreg"):
            data = make_kernel_data(kernel, generate_dataset("mol1", scale=512))
            expected = reference.run(kernel, data.arrays, data.left, data.right, 4)
            run_numeric(data, num_steps=4, backend="library")
            assert reference.matches(expected, data.arrays)
