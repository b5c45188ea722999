"""Failure injection: every guard in the pipeline must actually fire.

The reproduction's safety story rests on layered checks — permutation
validation at inspector boundaries, tiling verification, numeric
equivalence, concrete dependence ordering.  These tests corrupt state at
each layer and assert the corresponding check objects.
"""

import numpy as np
import pytest

from repro.kernels import make_kernel_data
from repro.kernels.datasets import Dataset
from repro.kernels.specs import kernel_by_name
from repro.runtime import CompositionPlan
from repro.runtime.executor import ExecutionPlan, emit_trace
from repro.errors import InspectorFault
from repro.runtime.inspector import (
    ComposedInspector,
    CPackStep,
    FullSparseTilingStep,
    InspectorState,
    LexGroupStep,
    Step,
    dependence_edges,
)
from repro.runtime.verify import verify_dependences, verify_numeric_equivalence
from repro.transforms.base import ReorderingFunction, identity_reordering
from repro.transforms.fst import TilingFunction, check_tiling


def tiny(kernel_name="moldyn", n=24, m=60, seed=0):
    rng = np.random.default_rng(seed)
    return make_kernel_data(
        kernel_name,
        Dataset(
            "tiny", n,
            rng.integers(0, n, m).astype(np.int64),
            rng.integers(0, n, m).astype(np.int64),
        ),
    )


class BrokenDataStep(Step):
    """A 'reordering' that maps two nodes to the same slot."""

    name = "broken"

    def run(self, state: InspectorState) -> None:
        n = state.data.num_nodes
        sigma = np.arange(n, dtype=np.int64)
        sigma[1] = sigma[0]  # collision
        state.apply_data_reordering(
            ReorderingFunction("broken", sigma), self.name
        )

    def symbolic(self, kernel, index):
        return []


class TestPermutationGuards:
    def test_non_bijective_data_reordering_rejected(self):
        data = tiny()
        with pytest.raises(ValueError, match="not a permutation"):
            ComposedInspector([BrokenDataStep()]).run(data)

    def test_non_bijective_iteration_reordering_rejected(self):
        data = tiny()
        inspector = ComposedInspector([])
        result = inspector.run(data)

        state = InspectorState(
            data=data.copy(),
            remap="once",
            sigma_total=identity_reordering(data.num_nodes),
        )
        bad = np.zeros(data.num_inter, dtype=np.int64)
        with pytest.raises(ValueError, match="not a permutation"):
            state.apply_iteration_reordering(
                data.interaction_loop_position(),
                ReorderingFunction("bad", bad),
                "bad",
            )

    def test_node_loop_iteration_reordering_rejected(self):
        """Node loops follow the data; explicit deltas are a misuse."""
        data = tiny()
        state = InspectorState(
            data=data.copy(),
            remap="once",
            sigma_total=identity_reordering(data.num_nodes),
        )
        with pytest.raises(ValueError, match="interaction loop"):
            state.apply_iteration_reordering(
                0, identity_reordering(data.num_nodes), "x"
            )


class TestTilingGuards:
    def test_corrupted_tiles_fail_verification(self):
        data = tiny()
        res = ComposedInspector(
            [CPackStep(), LexGroupStep(), FullSparseTilingStep(8)]
        ).run(data)
        d = res.transformed
        edges = dependence_edges(d)
        check_tiling(res.tiling, d.loop_sizes(), edges, "fst")
        corrupted = TilingFunction(
            [t.copy() for t in res.tiling.tiles], res.tiling.num_tiles
        )
        corrupted.tiles[0][:] = res.tiling.num_tiles - 1  # i loop all-last
        with pytest.raises(InspectorFault, match="loop 0 -> loop 1"):
            check_tiling(corrupted, d.loop_sizes(), edges, "fst")

    def test_corrupted_sweep_tiles_fail_verification(self):
        from repro.transforms.fst_sweeps import (
            CSRGraph,
            full_sparse_tiling_sweeps,
            sweep_edges,
        )
        from repro.transforms import block_partition

        data = tiny()
        graph = CSRGraph.from_edges(data.num_nodes, data.left, data.right)
        tiling = full_sparse_tiling_sweeps(
            graph, 3, block_partition(data.num_nodes, 8)
        )
        sizes, edges = [graph.num_nodes] * 3, sweep_edges(graph, 3)
        check_tiling(tiling, sizes, edges, "sweeps")
        bad = TilingFunction([t.copy() for t in tiling.tiles], tiling.num_tiles)
        bad.tiles[0][:] = tiling.num_tiles - 1
        with pytest.raises(InspectorFault, match="tiling violates"):
            check_tiling(bad, sizes, edges, "sweeps")


class TestExecutorGuards:
    def test_truncated_schedule_rejected(self):
        data = tiny()
        res = ComposedInspector(
            [CPackStep(), LexGroupStep(), FullSparseTilingStep(8)]
        ).run(data)
        broken = [tile[:] for tile in res.plan.schedule]
        broken[0] = [arr[:-1] if len(arr) else arr for arr in broken[0]]
        with pytest.raises(ValueError, match="schedule covers"):
            emit_trace(res.transformed, ExecutionPlan(schedule=broken))

    def test_swapped_payload_caught_numerically(self):
        data = tiny()
        plan = CompositionPlan(kernel_by_name("moldyn"), [CPackStep()])
        plan.plan()
        res = plan.build_inspector().run(data)
        a = res.transformed.arrays["x"]
        a[0], a[1] = a[1], a[0]
        with pytest.raises(AssertionError, match="differs"):
            verify_numeric_equivalence(data, res)

    def test_stale_index_array_caught_numerically(self):
        """Simulate forgetting to adjust index arrays after remapping."""
        data = tiny()
        plan = CompositionPlan(kernel_by_name("moldyn"), [CPackStep()])
        plan.plan()
        res = plan.build_inspector().run(data)
        res.transformed.left = data.left.copy()  # stale!
        with pytest.raises(AssertionError, match="differs"):
            verify_numeric_equivalence(data, res)

    def test_any_lexgroup_permutation_is_legal(self):
        """Swapping lg for a different permutation does NOT violate the
        dependences: lexGroup targets a subspace whose only internal
        dependences are reductions, so *any* permutation is legal — the
        compile-time reason it needs no dependence-inspecting inspector.
        """
        data = tiny()
        plan = CompositionPlan(
            kernel_by_name("moldyn"), [CPackStep(), LexGroupStep()]
        )
        plan.plan()
        res = plan.build_inspector().run(data)
        lg = res.stage_functions["lg1"]
        res.stage_functions["lg1"] = lg[::-1].copy()
        assert verify_dependences(data, res, plan, num_steps=1) > 0

    def test_wrong_tiling_function_caught_by_dependence_check(self):
        """theta, unlike lg, is load-bearing: corrupting it must fire."""
        data = tiny()
        plan = CompositionPlan(
            kernel_by_name("moldyn"),
            [CPackStep(), LexGroupStep(), FullSparseTilingStep(8)],
        )
        plan.plan()
        res = plan.build_inspector().run(data)
        theta = res.stage_functions["theta2"]
        theta[1][:] = 0  # every j iteration claims the first tile
        with pytest.raises(AssertionError, match="violated"):
            verify_dependences(data, res, plan, num_steps=1)
