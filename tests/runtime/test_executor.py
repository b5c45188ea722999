"""Unit tests for trace emission and numeric execution."""

import numpy as np
import pytest

from repro.runtime.executor import (
    INTERS_REGION,
    NODES_REGION,
    ExecutionPlan,
    emit_trace,
    run_numeric,
)


class TestTraceEmission:
    def test_trace_length_moldyn(self, moldyn_data):
        trace = emit_trace(moldyn_data, num_steps=1)
        n, m = moldyn_data.num_nodes, moldyn_data.num_inter
        # i loop: n node touches; j loop: m * (1 inter + 2 nodes); k loop: n
        assert len(trace) == n + 3 * m + n

    def test_trace_length_two_steps(self, irreg_data):
        one = emit_trace(irreg_data, num_steps=1)
        two = emit_trace(irreg_data, num_steps=2)
        assert len(two) == 2 * len(one)

    def test_trace_regions(self, moldyn_data):
        trace = emit_trace(moldyn_data)
        names = [r.name for r in trace.regions]
        assert names == [NODES_REGION, INTERS_REGION]
        assert trace.regions[0].record_bytes == 72  # moldyn payload
        assert trace.regions[1].record_bytes == 8

    def test_j_loop_interleaving(self, irreg_data):
        """Pattern inside the j loop: inter record, left node, right node."""
        trace = emit_trace(irreg_data)
        m = irreg_data.num_inter
        rids = trace.region_ids[: 3 * m]
        elems = trace.elements[: 3 * m]
        inter_rid = [r.name for r in trace.regions].index(INTERS_REGION)
        assert (rids[0::3] == inter_rid).all()
        node_rid = [r.name for r in trace.regions].index(NODES_REGION)
        assert (rids[1::3] == node_rid).all()
        assert np.array_equal(elems[1::3], irreg_data.left)
        assert np.array_equal(elems[2::3], irreg_data.right)

    def test_schedule_covers_all_iterations(self, moldyn_data):
        n, m = moldyn_data.num_nodes, moldyn_data.num_inter
        half_n, half_m = n // 2, m // 2
        schedule = [
            [np.arange(half_n), np.arange(half_m), np.arange(half_n)],
            [np.arange(half_n, n), np.arange(half_m, m), np.arange(half_n, n)],
        ]
        plan = ExecutionPlan(schedule=schedule)
        trace = emit_trace(moldyn_data, plan)
        assert len(trace) == n + 3 * m + n

    def test_incomplete_schedule_rejected(self, moldyn_data):
        schedule = [[np.arange(1), np.arange(1), np.arange(1)]]
        with pytest.raises(ValueError, match="schedule covers"):
            emit_trace(moldyn_data, ExecutionPlan(schedule=schedule))

    def test_total_bytes_counts_regions(self, moldyn_data):
        trace = emit_trace(moldyn_data)
        expected = (
            moldyn_data.num_nodes * 72 + moldyn_data.num_inter * 8
        )
        assert trace.total_bytes() == expected


class TestLineExpansion:
    def test_spanning_records_touch_two_lines(self, moldyn_data):
        """A 72-byte record usually spans two 64-byte lines."""
        trace = emit_trace(moldyn_data)
        lines64 = trace.line_sequence(64)
        lines128 = trace.line_sequence(128)
        assert len(lines64) > len(trace)  # expansion happened
        assert len(lines64) > len(lines128)

    def test_line_sequence_monotone_within_record(self, irreg_data):
        trace = emit_trace(irreg_data)
        lines = trace.line_sequence(64)
        assert len(lines) >= len(trace)

    def test_bad_line_size(self, irreg_data):
        trace = emit_trace(irreg_data)
        with pytest.raises(ValueError):
            trace.line_sequence(96)


class TestNumericExecution:
    @pytest.mark.parametrize("fixture", ["moldyn_data", "nbf_data", "irreg_data"])
    def test_runs_and_changes_state(self, fixture, request):
        data = request.getfixturevalue(fixture)
        before = {k: v.copy() for k, v in data.arrays.items()}
        run_numeric(data, num_steps=1)
        changed = any(
            not np.array_equal(before[k], data.arrays[k]) for k in before
        )
        assert changed

    def test_deterministic(self, moldyn_data):
        a = run_numeric(moldyn_data.copy(), 3)
        b = run_numeric(moldyn_data.copy(), 3)
        for k in a.arrays:
            assert np.array_equal(a.arrays[k], b.arrays[k])
