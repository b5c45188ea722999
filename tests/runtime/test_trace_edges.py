"""Edge cases of ``emit_trace``: write flags, schedule validation,
empty tiles, and multi-step repetition."""

import numpy as np
import pytest

from repro.kernels import generate_dataset, make_kernel_data
from repro.runtime.executor import ExecutionPlan, emit_trace


@pytest.fixture(scope="module")
def moldyn_data():
    return make_kernel_data("moldyn", generate_dataset("mol1", scale=256))


@pytest.fixture(scope="module")
def nbf_data():
    return make_kernel_data("nbf", generate_dataset("foil", scale=256))


def test_mark_writes_propagates_kernel_ir_store_flags(moldyn_data):
    """Write flags follow the kernel IR: every loop containing a node
    WRITE/UPDATE marks its node-record touches; interaction records are
    read-only in all benchmarks."""
    data = moldyn_data
    trace = emit_trace(data, mark_writes=True)
    assert trace.writes is not None and len(trace.writes) == len(trace)

    n, m = data.num_nodes, data.num_inter
    # Loop 0 (x update): a node sweep of stores.
    assert trace.writes[:n].all()
    # Loop 1 (force): triples (interaction record, left node, right node)
    # — the interaction record is a load, both node touches are stores.
    inter = trace.writes[n : n + 3 * m].reshape(m, 3)
    assert not inter[:, 0].any()
    assert inter[:, 1:].all()
    # Loop 2 (velocity update): stores again.
    assert trace.writes[n + 3 * m :].all()


def test_mark_writes_default_off(moldyn_data):
    assert emit_trace(moldyn_data).writes is None


def test_mark_writes_two_loop_kernel(nbf_data):
    data = nbf_data
    trace = emit_trace(data, mark_writes=True)
    m, n = data.num_inter, data.num_nodes
    inter = trace.writes[: 3 * m].reshape(m, 3)
    assert not inter[:, 0].any()
    assert inter[:, 1:].all()
    assert trace.writes[3 * m :].all()


def test_validate_schedule_rejects_undercoverage(moldyn_data):
    data = moldyn_data
    sizes = data.loop_sizes()
    # Drop one iteration of loop 1: the schedule no longer covers it.
    tile = [
        np.arange(sizes[0], dtype=np.int64),
        np.arange(sizes[1] - 1, dtype=np.int64),
        np.arange(sizes[2], dtype=np.int64),
    ]
    plan = ExecutionPlan(schedule=[tile])
    with pytest.raises(ValueError, match=(
        rf"schedule covers {sizes[1] - 1} iterations of loop 1, "
        rf"expected {sizes[1]}"
    )):
        emit_trace(data, plan)


def test_validate_schedule_rejects_duplicates_by_count(moldyn_data):
    data = moldyn_data
    sizes = data.loop_sizes()
    doubled = np.concatenate([np.arange(sizes[0]), np.arange(sizes[0])])
    tile = [
        doubled.astype(np.int64),
        np.arange(sizes[1], dtype=np.int64),
        np.arange(sizes[2], dtype=np.int64),
    ]
    with pytest.raises(ValueError, match="schedule covers"):
        emit_trace(data, ExecutionPlan(schedule=[tile]))


def test_empty_tiles_match_dense_trace(moldyn_data):
    """A schedule padded with empty tiles emits exactly the dense
    (identity) trace: empty tiles contribute no accesses, in any slot."""
    data = moldyn_data
    sizes = data.loop_sizes()
    full = [np.arange(size, dtype=np.int64) for size in sizes]
    empty = [np.empty(0, dtype=np.int64) for _ in sizes]
    schedule = [empty, full, empty, empty]
    dense = emit_trace(data, ExecutionPlan.identity())
    tiled = emit_trace(data, ExecutionPlan(schedule=schedule))
    assert np.array_equal(dense.region_ids, tiled.region_ids)
    assert np.array_equal(dense.elements, tiled.elements)

    # ...and with write flags the expanded store stream matches too.
    dense_w = emit_trace(data, ExecutionPlan.identity(), mark_writes=True)
    tiled_w = emit_trace(
        data, ExecutionPlan(schedule=schedule), mark_writes=True
    )
    assert np.array_equal(dense_w.writes, tiled_w.writes)
    lines_a, writes_a = dense_w.line_sequence_with_writes(64)
    lines_b, writes_b = tiled_w.line_sequence_with_writes(64)
    assert np.array_equal(lines_a, lines_b)
    assert np.array_equal(writes_a, writes_b)


def test_num_steps_repeats_the_access_pattern(moldyn_data):
    one = emit_trace(moldyn_data, num_steps=1)
    three = emit_trace(moldyn_data, num_steps=3)
    assert len(three) == 3 * len(one)
    assert np.array_equal(three.elements[: len(one)], one.elements)
    assert np.array_equal(three.elements[len(one) : 2 * len(one)], one.elements)
