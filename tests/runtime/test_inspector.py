"""Unit and integration tests for the composed inspector."""

import numpy as np
import pytest

from repro.runtime.inspector import (
    BucketTilingStep,
    CacheBlockStep,
    ComposedInspector,
    CPackStep,
    FullSparseTilingStep,
    GPartStep,
    LexGroupStep,
    LexSortStep,
    RCMStep,
    TilePackStep,
    dependence_edges,
)
from repro.runtime.verify import verify_numeric_equivalence
from repro.transforms.base import ReorderingFunction
from tests.transforms.tiling_oracle import verify_tiling


def run_composition(data, steps, remap="once"):
    return ComposedInspector(steps, remap=remap).run(data)


class TestSingleSteps:
    def test_cpack_adjusts_index_arrays(self, moldyn_data):
        res = run_composition(moldyn_data, [CPackStep()])
        sigma = res.sigma_nodes
        assert sigma.is_permutation()
        assert np.array_equal(
            res.transformed.left, sigma.remap_values(moldyn_data.left)
        )

    def test_cpack_moves_payload(self, moldyn_data):
        res = run_composition(moldyn_data, [CPackStep()])
        for name, arr in moldyn_data.arrays.items():
            moved = res.sigma_nodes.apply_to_data(arr)
            assert np.array_equal(res.transformed.arrays[name], moved)

    def test_restore_array_roundtrip(self, moldyn_data):
        res = run_composition(moldyn_data, [CPackStep(), LexGroupStep()])
        for name in moldyn_data.arrays:
            assert np.allclose(
                res.restore_array(name), moldyn_data.arrays[name]
            )

    def test_lexgroup_sorts_by_first_location(self, irreg_data):
        res = run_composition(irreg_data, [CPackStep(), LexGroupStep()])
        firsts = res.transformed.left
        assert (np.diff(firsts) >= 0).all()

    def test_interaction_delta_tracked(self, irreg_data):
        res = run_composition(irreg_data, [LexGroupStep()])
        delta = ReorderingFunction("lg0", res.stage_functions["lg0"])
        assert delta.is_permutation()
        # rows moved accordingly: new row delta[old] == old row
        old = irreg_data.left
        new = res.transformed.left
        assert np.array_equal(new[delta.array], old)

    @pytest.mark.parametrize(
        "step",
        [
            CPackStep(),
            GPartStep(8),
            RCMStep(),
            LexGroupStep(),
            LexSortStep(),
            BucketTilingStep(8),
        ],
    )
    def test_each_step_preserves_semantics(self, moldyn_data, step):
        res = run_composition(moldyn_data, [step])
        assert verify_numeric_equivalence(moldyn_data, res)


class TestSparseTilingSteps:
    def test_fst_produces_schedule(self, moldyn_data):
        res = run_composition(
            moldyn_data, [CPackStep(), LexGroupStep(), FullSparseTilingStep(10)]
        )
        assert res.tiling is not None
        assert res.plan.schedule is not None
        sizes = moldyn_data.loop_sizes()
        for pos, size in enumerate(sizes):
            covered = sum(len(t[pos]) for t in res.plan.schedule)
            assert covered == size

    def test_fst_tiling_legal_on_final_arrays(self, moldyn_data):
        res = run_composition(
            moldyn_data, [CPackStep(), LexGroupStep(), FullSparseTilingStep(10)]
        )
        assert verify_tiling(res.tiling, dependence_edges(res.transformed))

    def test_tilepack_keeps_tiling_legal(self, moldyn_data):
        res = run_composition(
            moldyn_data,
            [CPackStep(), LexGroupStep(), FullSparseTilingStep(10), TilePackStep()],
        )
        assert verify_tiling(res.tiling, dependence_edges(res.transformed))

    @pytest.mark.parametrize("kernel", ["moldyn", "nbf", "irreg"])
    def test_tilepack_leaves_packed_loops_in_range_form(self, kernel, request):
        """After ``cpack+lexgroup+fst+tilepack`` a tile's iterations of
        the seed loop and of the packed node loop are a contiguous range
        (Figure 14's blocked loops): the schedule says so per loop, from
        the data.  moldyn's ``Lk`` shares the node order ``Li`` was
        packed in, under another tiling, and stays an index list."""
        data = request.getfixturevalue(f"{kernel}_data")
        steps = [CPackStep(), LexGroupStep(), FullSparseTilingStep(10)]
        unpacked = run_composition(data, steps).plan.schedule
        packed = run_composition(data, steps + [TilePackStep()]).plan.schedule
        p_j = data.interaction_loop_position()
        first_nodes = data.node_loop_positions()[0]
        want = tuple(pos in (p_j, first_nodes) for pos in range(len(data.loops)))
        assert packed.is_range == want
        assert unpacked.is_range == tuple(
            pos == p_j for pos in range(len(data.loops))
        )
        for pos, is_range in enumerate(packed.is_range):
            flat = packed.loops[pos].flat
            assert is_range == np.array_equal(flat, np.arange(len(flat)))

    def test_tilepack_requires_tiling(self, moldyn_data):
        with pytest.raises(ValueError, match="requires a prior sparse tiling"):
            run_composition(moldyn_data, [TilePackStep()])

    def test_cache_block_on_moldyn(self, moldyn_data):
        res = run_composition(
            moldyn_data, [CPackStep(), LexGroupStep(), CacheBlockStep(10)]
        )
        assert res.tiling is not None
        assert verify_numeric_equivalence(moldyn_data, res)

    def test_fst_on_two_loop_kernels(self, irreg_data):
        res = run_composition(
            irreg_data, [CPackStep(), LexGroupStep(), FullSparseTilingStep(10)]
        )
        edges = dependence_edges(res.transformed)
        assert list(edges) == [(0, 1)]
        assert verify_tiling(res.tiling, edges)
        assert verify_numeric_equivalence(irreg_data, res)

    def test_fst_symmetry_flag_equivalent(self, moldyn_data):
        with_sym = run_composition(
            moldyn_data,
            [CPackStep(), LexGroupStep(), FullSparseTilingStep(10, use_symmetry=True)],
        )
        without = run_composition(
            moldyn_data,
            [CPackStep(), LexGroupStep(), FullSparseTilingStep(10, use_symmetry=False)],
        )
        assert [t.tolist() for t in with_sym.tiling.tiles] == [
            t.tolist() for t in without.tiling.tiles
        ]
        assert with_sym.overhead["fst"] < without.overhead["fst"]


class TestPaperCompositions:
    """End-to-end semantics for every composition in the evaluation."""

    @pytest.mark.parametrize("kernel_fixture", ["moldyn_data", "nbf_data", "irreg_data"])
    @pytest.mark.parametrize(
        "make_steps",
        [
            lambda: [CPackStep(), LexGroupStep()],
            lambda: [GPartStep(8), LexGroupStep()],
            lambda: [CPackStep(), LexGroupStep(), CPackStep(), LexGroupStep()],
            lambda: [CPackStep(), LexGroupStep(), FullSparseTilingStep(10), TilePackStep()],
            lambda: [
                CPackStep(), LexGroupStep(), CPackStep(), LexGroupStep(),
                FullSparseTilingStep(10), TilePackStep(),
            ],
            lambda: [GPartStep(8), LexGroupStep(), FullSparseTilingStep(10), TilePackStep()],
        ],
    )
    def test_composition_preserves_semantics(
        self, kernel_fixture, make_steps, request
    ):
        data = request.getfixturevalue(kernel_fixture)
        res = run_composition(data, make_steps())
        assert verify_numeric_equivalence(data, res)


class TestRemapPolicies:
    def _steps(self):
        return [
            CPackStep(), LexGroupStep(), CPackStep(), LexGroupStep(),
            FullSparseTilingStep(10), TilePackStep(),
        ]

    def test_policies_produce_identical_executors(self, moldyn_data):
        once = run_composition(moldyn_data, self._steps(), remap="once")
        each = run_composition(moldyn_data, self._steps(), remap="each")
        assert np.array_equal(once.transformed.left, each.transformed.left)
        assert np.array_equal(once.transformed.right, each.transformed.right)
        for name in moldyn_data.arrays:
            assert np.allclose(
                once.transformed.arrays[name], each.transformed.arrays[name]
            )
        assert np.array_equal(once.sigma_nodes.array, each.sigma_nodes.array)

    def test_once_moves_payload_once(self, moldyn_data):
        once = run_composition(moldyn_data, self._steps(), remap="once")
        each = run_composition(moldyn_data, self._steps(), remap="each")
        assert once.data_moves == 1
        assert each.data_moves == 3  # cpack, cpack, tilepack

    def test_once_has_lower_overhead(self, moldyn_data):
        """Figure 16's effect: remap-once reduces inspector touches."""
        once = run_composition(moldyn_data, self._steps(), remap="once")
        each = run_composition(moldyn_data, self._steps(), remap="each")
        assert once.overhead["data_remap"] < each.overhead["data_remap"]
        assert once.total_touches < each.total_touches

    def test_single_data_reordering_same_cost(self, moldyn_data):
        steps = [CPackStep(), LexGroupStep()]
        once = run_composition(moldyn_data, steps, remap="once")
        each = run_composition(moldyn_data, steps, remap="each")
        assert once.total_touches == each.total_touches

    def test_invalid_remap_policy(self):
        with pytest.raises(ValueError):
            ComposedInspector([], remap="sometimes")

    def test_no_steps_is_identity(self, moldyn_data):
        res = run_composition(moldyn_data, [])
        assert res.data_moves == 0
        assert np.array_equal(
            res.sigma_nodes.array, np.arange(moldyn_data.num_nodes)
        )
        assert np.array_equal(res.transformed.left, moldyn_data.left)
