"""Property-based tests: random compositions on random instances.

The central soundness property of the whole system: **any** composition
of reordering steps, on **any** kernel instance, under **either** remap
policy, produces a transformed executor that computes the baseline's
results.  hypothesis drives the search for counterexamples.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.kernels import make_kernel_data
from repro.kernels.datasets import Dataset
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
from repro.transforms.base import ReorderingFunction, identity_reordering
from tests.transforms.tiling_oracle import verify_tiling


@st.composite
def kernel_instances(draw):
    kernel_name = draw(st.sampled_from(["moldyn", "nbf", "irreg"]))
    n = draw(st.integers(4, 40))
    m = draw(st.integers(2, 80))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    ds = Dataset(
        "prop", n,
        rng.integers(0, n, m).astype(np.int64),
        rng.integers(0, n, m).astype(np.int64),
    )
    return make_kernel_data(kernel_name, ds)


_STEP_MAKERS = [
    lambda r: CPackStep(),
    lambda r: GPartStep(r.draw(st.integers(1, 16))),
    lambda r: RCMStep(),
    lambda r: LexGroupStep(),
    lambda r: LexSortStep(),
    lambda r: BucketTilingStep(r.draw(st.integers(1, 16))),
]


@st.composite
def step_lists(draw, with_tiling=False):
    class _R:
        def draw(self, strategy):
            return draw(strategy)

    r = _R()
    count = draw(st.integers(0, 4))
    steps = [
        draw(st.sampled_from(_STEP_MAKERS))(r) for _ in range(count)
    ]
    if with_tiling:
        steps.append(FullSparseTilingStep(draw(st.integers(1, 20))))
        if draw(st.booleans()):
            steps.append(TilePackStep())
    return steps


class TestRandomCompositions:
    @given(kernel_instances(), step_lists(), st.sampled_from(["once", "each"]))
    @settings(max_examples=60, deadline=None)
    def test_untiled_compositions_preserve_semantics(self, data, steps, remap):
        result = ComposedInspector(steps, remap=remap).run(data)
        assert result.sigma_nodes.is_permutation()
        assert verify_numeric_equivalence(data, result, num_steps=2)

    @given(kernel_instances(), step_lists(with_tiling=True),
           st.sampled_from(["once", "each"]))
    @settings(max_examples=40, deadline=None)
    def test_tiled_compositions_preserve_semantics(self, data, steps, remap):
        result = ComposedInspector(steps, remap=remap).run(data)
        assert result.tiling is not None
        assert verify_numeric_equivalence(data, result, num_steps=2)
        # the final tiling is legal against the final index arrays
        assert verify_tiling(result.tiling, dependence_edges(result.transformed))

    @given(kernel_instances(), step_lists())
    @settings(max_examples=30, deadline=None)
    def test_remap_policies_agree(self, data, steps):
        once = ComposedInspector(steps, remap="once").run(data)
        each = ComposedInspector(steps, remap="each").run(data)
        assert np.array_equal(once.sigma_nodes.array, each.sigma_nodes.array)
        assert np.array_equal(once.transformed.left, each.transformed.left)
        for name in data.arrays:
            assert np.allclose(
                once.transformed.arrays[name], each.transformed.arrays[name]
            )

    @given(kernel_instances(), step_lists(with_tiling=True))
    @settings(max_examples=25, deadline=None)
    def test_schedule_is_a_partition(self, data, steps):
        result = ComposedInspector(steps).run(data)
        sizes = data.loop_sizes()
        for pos, size in enumerate(sizes):
            seen = np.concatenate(
                [tile[pos] for tile in result.plan.schedule]
            )
            assert sorted(seen.tolist()) == list(range(size))

    @given(kernel_instances(), step_lists())
    @settings(max_examples=30, deadline=None)
    def test_index_arrays_stay_consistent(self, data, steps):
        """sigma(left_0 reordered by deltas) == left_final, always.

        The interaction loop's delta composes the iteration reorderings'
        stage functions in stage order."""
        result = ComposedInspector(steps).run(data)
        delta = identity_reordering(data.num_inter)
        for index, step in enumerate(steps):
            if step.symbol_domain == "inters":
                name = f"{step.symbol_prefix}{index}"
                delta = delta.compose(
                    ReorderingFunction(name, result.stage_functions[name])
                )
        expected = result.sigma_nodes.remap_values(data.left)[
            delta.inverse_array
        ]
        assert np.array_equal(result.transformed.left, expected)
