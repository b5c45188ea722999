"""Property-based tests for transform invariants."""

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.transforms import (
    AccessMap,
    ReorderingFunction,
    block_partition,
    bucket_tiling,
    cpack,
    full_sparse_tiling,
    gpart,
    lexgroup,
    lexsort,
    permutation_from_order,
    reverse_cuthill_mckee,
    tilepack,
)
from tests.transforms.tiling_oracle import verify_tiling


@st.composite
def access_maps(draw, max_n=24, max_width=3):
    n = draw(st.integers(2, max_n))
    n_iters = draw(st.integers(1, max_n))
    width = draw(st.integers(1, max_width))
    cols = [
        np.array(draw(st.lists(st.integers(0, n - 1), min_size=n_iters, max_size=n_iters)))
        for _ in range(width)
    ]
    return AccessMap.from_columns(cols, n)


@st.composite
def permutations(draw, max_n=30):
    n = draw(st.integers(1, max_n))
    return permutation_from_order("p", draw(st.permutations(list(range(n)))))


class TestPermutationLaws:
    @given(permutations())
    @settings(max_examples=60)
    def test_inverse_roundtrip(self, p):
        n = len(p)
        assert list(p.compose(p.inverse()).array) == list(range(n))
        assert list(p.inverse().compose(p).array) == list(range(n))

    @given(permutations())
    @settings(max_examples=60)
    def test_apply_then_gather_is_identity(self, p):
        data = np.arange(len(p)) * 10.0
        moved = p.apply_to_data(data)
        recovered = moved[p.array]
        assert np.array_equal(recovered, data)

    @given(permutations(), permutations())
    @settings(max_examples=40)
    def test_composition_is_permutation(self, p, q):
        if len(p) == len(q):
            assert p.compose(q).is_permutation()


class TestInspectorOutputsArePermutations:
    @given(access_maps())
    @settings(max_examples=50, deadline=None)
    def test_cpack(self, am):
        assert cpack(am.flat_locations(), am.num_locations).is_permutation()

    @given(access_maps(), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_gpart(self, am, psize):
        assert gpart(am, psize).is_permutation()

    @given(access_maps())
    @settings(max_examples=40, deadline=None)
    def test_rcm(self, am):
        assert reverse_cuthill_mckee(am).is_permutation()

    @given(access_maps())
    @settings(max_examples=40, deadline=None)
    def test_lexgroup_and_lexsort(self, am):
        assert lexgroup(am).is_permutation()
        assert lexsort(am).is_permutation()

    @given(access_maps(), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_bucket_tiling(self, am, bsize):
        assert bucket_tiling(am, bsize).is_permutation()


class TestDataIterationConsistency:
    @given(access_maps())
    @settings(max_examples=40, deadline=None)
    def test_reordering_preserves_multiset_of_rows(self, am):
        """Iteration reordering permutes rows without changing them."""
        delta = lexgroup(am)
        reordered = am.with_iterations_reordered(delta)
        original_rows = sorted(tuple(am.row(i)) for i in range(am.num_iterations))
        new_rows = sorted(
            tuple(reordered.row(i)) for i in range(reordered.num_iterations)
        )
        assert original_rows == new_rows

    @given(access_maps())
    @settings(max_examples=40, deadline=None)
    def test_data_reordering_relabels_consistently(self, am):
        sigma = cpack(am.flat_locations(), am.num_locations)
        remapped = am.with_data_reordered(sigma)
        inv = sigma.inverse_array
        assert np.array_equal(
            inv[remapped.flat_locations()], am.flat_locations()
        )


@st.composite
def moldyn_like_edges(draw, max_n=20):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, 3 * max_n))
    left = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    right = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    return n, m, left, right


class TestSparseTilingLegality:
    @given(moldyn_like_edges(), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_fst_always_legal(self, shape, block):
        n, m, left, right = shape
        j = np.arange(m)
        e01 = ((left, j), (right, j))
        e12 = ((j, left), (j, right))
        seed = block_partition(m, block)
        tf = full_sparse_tiling([n, m, n], 1, seed, {(0, 1): e01, (1, 2): e12})
        assert verify_tiling(tf, {(0, 1): e01, (1, 2): e12})
        # every iteration tiled within range
        for tiles in tf.tiles:
            assert tiles.min() >= 0 and tiles.max() < tf.num_tiles

    @given(moldyn_like_edges(), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_tilepack_is_permutation(self, shape, block):
        n, m, left, right = shape
        j = np.arange(m)
        e01 = ((left, j), (right, j))
        e12 = ((j, left), (j, right))
        tf = full_sparse_tiling(
            [n, m, n], 1, block_partition(m, block), {(0, 1): e01, (1, 2): e12}
        )
        assert tilepack(tf, 0, n).is_permutation()
