"""``emit_trace`` against a hand-written walk of the paper's executors.

The cost model's address trace is read from the lowered program and
walked in :func:`repro.lowering.schedule.tile_walk`'s order.  The oracle
here is the walk it replaced, written out per iteration: per time step,
per tile, per loop, a node loop touches its node record, an interaction
loop its interaction record and then the ``left`` and ``right`` node
records, and every node touch of the three benchmark kernels is a store.
``test_trace_freeze.py`` pins the bytes on mol1@12; this file checks the
model on small random instances, after a composition, under a tiling
and over several steps.
"""

import numpy as np
import pytest

from repro.kernels import make_kernel_data
from repro.kernels.datasets import Dataset
from repro.runtime.executor import ExecutionPlan, emit_trace
from repro.runtime.inspector import (
    ComposedInspector,
    CPackStep,
    FullSparseTilingStep,
    LexGroupStep,
)


def tiny(kernel_name, n=20, m=50, seed=0):
    rng = np.random.default_rng(seed)
    return make_kernel_data(
        kernel_name,
        Dataset(
            "tiny", n,
            rng.integers(0, n, m).astype(np.int64),
            rng.integers(0, n, m).astype(np.int64),
        ),
    )


def oracle_stream(data, schedule=None, num_steps=1, mark_writes=False):
    """``(region, element, store)`` per record touch, walked by hand."""
    if schedule is None:
        schedule = [[range(size) for size in data.loop_sizes()]]
    stream = []
    for _step in range(num_steps):
        for tile in schedule:
            for loop, iters in zip(data.loops, tile):
                for x in iters:
                    x = int(x)
                    if loop.domain == "nodes":
                        stream.append(("nodes", x, mark_writes))
                        continue
                    stream += [
                        ("inters", x, False),
                        ("nodes", int(data.left[x]), mark_writes),
                        ("nodes", int(data.right[x]), mark_writes),
                    ]
    return stream


def emitted_stream(data, plan=None, num_steps=1, mark_writes=False):
    trace = emit_trace(data, plan, num_steps=num_steps, mark_writes=mark_writes)
    names = [r.name for r in trace.regions]
    writes = (
        trace.writes if trace.writes is not None
        else np.zeros(len(trace), dtype=bool)
    )
    return [
        (names[rid], int(el), bool(w))
        for rid, el, w in zip(trace.region_ids, trace.elements, writes)
    ]


class TestTraceOracle:
    @pytest.mark.parametrize("kernel_name", ["moldyn", "nbf", "irreg"])
    def test_matches_emit_trace(self, kernel_name):
        data = tiny(kernel_name)
        for mark in (False, True):
            assert emitted_stream(data, mark_writes=mark) == oracle_stream(
                data, mark_writes=mark
            )

    @pytest.mark.parametrize("kernel_name", ["moldyn", "irreg"])
    def test_matches_after_composition(self, kernel_name):
        data = tiny(kernel_name)
        res = ComposedInspector([CPackStep(), LexGroupStep()]).run(data)
        assert emitted_stream(res.transformed) == oracle_stream(
            res.transformed
        )

    def test_matches_tiled(self):
        data = tiny("moldyn")
        res = ComposedInspector(
            [CPackStep(), LexGroupStep(), FullSparseTilingStep(10)]
        ).run(data)
        schedule = res.plan.schedule
        assert schedule.num_tiles > 1
        for mark in (False, True):
            assert emitted_stream(
                res.transformed, res.plan, mark_writes=mark
            ) == oracle_stream(res.transformed, schedule, mark_writes=mark)
        hand_built = ExecutionPlan(schedule=[list(tile) for tile in schedule])
        assert emitted_stream(res.transformed, hand_built) == oracle_stream(
            res.transformed, schedule
        )

    def test_multiple_steps(self):
        data = tiny("irreg")
        assert emitted_stream(data, num_steps=3) == oracle_stream(
            data, num_steps=3
        )
