"""Unit tests for benchmark specs, datasets, and kernel instances."""

import numpy as np
import pytest

from repro.kernels import (
    DATASETS,
    generate_dataset,
    kernel_by_name,
    make_kernel_data,
    mesh2d_interactions,
    random_geometric_interactions,
    scramble_labels,
)
from repro.kernels.datasets import Dataset, _PAPER_SIZES
from repro.kernels.specs import KERNEL_NAMES
from repro.runtime import run_numeric
from repro.runtime.steps import interaction_loop_pos, node_loop_positions
from repro.uniform import ProgramState


class TestSpecs:
    @pytest.mark.parametrize("name", ["moldyn", "nbf", "irreg"])
    def test_kernels_build_and_analyze(self, name):
        kernel = kernel_by_name(name)
        state = ProgramState.initial(kernel)
        assert state.dependences
        assert state.uf_names() == {"left", "right"}

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            kernel_by_name("spmv")

    def test_moldyn_has_three_loops(self):
        assert len(kernel_by_name("moldyn").loops) == 3

    def test_two_loop_kernels(self):
        assert len(kernel_by_name("nbf").loops) == 2
        assert len(kernel_by_name("irreg").loops) == 2

    def test_record_bytes_ordering(self):
        """moldyn carries the heaviest per-node payload (72 B)."""
        ds = generate_dataset("foil", scale=256)
        record = {
            name: make_kernel_data(name, ds).node_record_bytes
            for name in ("moldyn", "nbf", "irreg")
        }
        assert record == {"moldyn": 72, "nbf": 32, "irreg": 16}

    def test_regrouped_payload_matches_spec_arrays(self):
        ds = generate_dataset("foil", scale=256)
        for name in ("moldyn", "nbf", "irreg"):
            kernel = kernel_by_name(name)
            total = sum(s.element_bytes for s in kernel.data_arrays.values())
            assert make_kernel_data(name, ds).node_record_bytes == total

    @pytest.mark.parametrize("name", ["moldyn", "nbf", "irreg"])
    def test_instance_loops_are_the_spec_loops(self, name):
        """An instance reads its loop shape from the spec: labels and
        domains (``num_inter`` loops iterate interactions)."""
        data = make_kernel_data(name, generate_dataset("foil", scale=256))
        spec = kernel_by_name(name)
        assert [(l.label, l.domain) for l in data.loops] == [
            (loop.label, "inters" if loop.extent == "num_inter" else "nodes")
            for loop in spec.loops
        ]
        assert data.loops is data.copy().loops  # one per kernel


class TestDatasetGenerators:
    def test_all_four_named_datasets(self):
        assert set(DATASETS) == {"mol1", "mol2", "foil", "auto"}

    @pytest.mark.parametrize("name", DATASETS)
    def test_scaled_sizes_and_ratio(self, name):
        ds = generate_dataset(name, scale=64)
        paper_nodes, paper_edges, _dim = _PAPER_SIZES[name]
        assert ds.num_nodes == max(16, paper_nodes // 64)
        # edge/node ratio within 30% of the paper's
        paper_ratio = paper_edges / paper_nodes
        assert ds.edges_per_node == pytest.approx(paper_ratio, rel=0.3)

    def test_endpoints_in_range(self):
        ds = generate_dataset("foil", scale=64)
        assert ds.left.min() >= 0 and ds.left.max() < ds.num_nodes
        assert ds.right.min() >= 0 and ds.right.max() < ds.num_nodes

    def test_deterministic(self):
        a = generate_dataset("mol1", scale=128)
        b = generate_dataset("mol1", scale=128)
        assert a.num_nodes == b.num_nodes
        assert np.array_equal(a.left, b.left)
        assert np.array_equal(a.right, b.right)
        assert np.array_equal(a.coords, b.coords)

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            generate_dataset("web-google")

    def test_geometric_graph_no_self_loops(self):
        left, right = random_geometric_interactions(200, 800, dim=3, seed=1)
        assert (left != right).all()

    def test_mesh2d_wrapper(self):
        left, right = mesh2d_interactions(200, 700, seed=2)
        assert len(left) == len(right) > 0

    def test_scramble_preserves_structure(self):
        left, right = random_geometric_interactions(100, 400, dim=2, seed=3)
        sl, sr = scramble_labels(100, left, right, seed=4)
        assert len(sl) == len(left)
        # degree multiset preserved
        deg = np.bincount(np.concatenate([left, right]), minlength=100)
        sdeg = np.bincount(np.concatenate([sl, sr]), minlength=100)
        assert sorted(deg) == sorted(sdeg)

    def test_scramble_destroys_locality(self):
        left, right = random_geometric_interactions(500, 2000, dim=2, seed=5)
        sl, sr = scramble_labels(500, left, right, seed=6)
        before = np.abs(left - right).mean()
        after = np.abs(sl - sr).mean()
        assert after > before  # random labels spread endpoints apart


class TestKernelData:
    def test_make_kernel_data(self):
        ds = generate_dataset("foil", scale=256)
        data = make_kernel_data("irreg", ds)
        assert data.num_nodes == ds.num_nodes
        assert set(data.arrays) == {"x", "y"}
        assert data.node_record_bytes == 16

    def test_loop_sizes(self):
        ds = generate_dataset("mol1", scale=256)
        data = make_kernel_data("moldyn", ds)
        assert data.loop_sizes() == [
            data.num_nodes,
            data.num_inter,
            data.num_nodes,
        ]

    def test_interaction_loop_position(self):
        ds = generate_dataset("mol1", scale=256)
        assert make_kernel_data("moldyn", ds).interaction_loop_position() == 1
        assert make_kernel_data("nbf", ds).interaction_loop_position() == 0

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_kernel_and_instance_find_the_same_loops(self, name):
        """The step table's view (a ``Kernel``) and a bound instance's
        view (``KernelData``) both read ``Loop.domain``, and on every spec
        kernel the interaction loop is the one whose statements subscript
        through an index array."""
        kernel = kernel_by_name(name)
        data = make_kernel_data(name, generate_dataset("mol1", scale=256))
        p_j = interaction_loop_pos(kernel)
        assert p_j == data.interaction_loop_position()
        assert node_loop_positions(kernel) == data.node_loop_positions()
        through_ufs = [
            pos
            for pos, loop in enumerate(kernel.loops)
            if any(
                acc.index.uf_names()
                for stmt in loop.statements
                for acc in stmt.accesses
            )
        ]
        assert through_ufs == [p_j]

    def test_copy_is_deep(self):
        ds = generate_dataset("foil", scale=256)
        data = make_kernel_data("irreg", ds)
        clone = data.copy()
        clone.arrays["x"][0] = 123.0
        clone.left[0] = 0
        assert data.arrays["x"][0] != 123.0

    def test_symbols(self):
        ds = generate_dataset("foil", scale=256)
        data = make_kernel_data("irreg", ds)
        assert data.symbols() == {
            "num_nodes": data.num_nodes,
            "num_inter": data.num_inter,
        }

    def test_access_map_shape(self):
        ds = generate_dataset("foil", scale=256)
        data = make_kernel_data("irreg", ds)
        am = data.interaction_access_map()
        assert am.num_iterations == data.num_inter
        assert am.num_locations == data.num_nodes


class TestNumericKernels:
    @pytest.mark.parametrize("name", ["moldyn", "nbf", "irreg"])
    def test_steps_accumulate(self, name):
        ds = generate_dataset("foil", scale=256)
        data = make_kernel_data(name, ds)
        one = run_numeric(data.copy(), 1)
        two = run_numeric(data.copy(), 2)
        first_array = next(iter(data.arrays))
        assert not np.array_equal(
            one.arrays[first_array], two.arrays[first_array]
        )

    def test_moldyn_force_symmetry(self):
        """Equal and opposite contributions: sum of fx is conserved."""
        ds = generate_dataset("mol1", scale=256)
        data = make_kernel_data("moldyn", ds)
        before = data.arrays["fx"].sum()
        run_numeric(data, 1)
        assert data.arrays["fx"].sum() == pytest.approx(before, abs=1e-6)
