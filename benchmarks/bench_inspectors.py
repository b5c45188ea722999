"""Wall-clock micro-benchmarks of the inspector algorithms themselves.

These complement the figure regenerators: the figures price inspectors in
*modeled* touches/cycles, while this module tracks the real Python
throughput of each reordering algorithm on a mol1-scale instance — the
numbers a downstream user cares about when embedding the inspectors.
"""

import pytest

from repro.eval.compositions import composition_steps
from repro.cachesim.machines import machine_by_name
from repro.kernels import generate_dataset, make_kernel_data
from repro.runtime.inspector import ComposedInspector, dependence_edges
from repro.transforms import (
    block_partition,
    cpack,
    full_sparse_tiling,
    gpart,
    lexgroup,
    reverse_cuthill_mckee,
)


@pytest.fixture(scope="module")
def moldyn_mol1():
    return make_kernel_data("moldyn", generate_dataset("mol1", scale=64))


@pytest.fixture(scope="module")
def access_map(moldyn_mol1):
    return moldyn_mol1.interaction_access_map()


def test_bench_cpack(benchmark, access_map):
    sigma = benchmark(
        cpack, access_map.flat_locations(), access_map.num_locations
    )
    assert sigma.is_permutation()


def test_bench_gpart(benchmark, access_map):
    sigma = benchmark(gpart, access_map, 113)
    assert sigma.is_permutation()


def test_bench_rcm(benchmark, access_map):
    sigma = benchmark(reverse_cuthill_mckee, access_map)
    assert sigma.is_permutation()


def test_bench_lexgroup(benchmark, access_map):
    delta = benchmark(lexgroup, access_map)
    assert delta.is_permutation()


def test_bench_fst(benchmark, moldyn_mol1):
    d = moldyn_mol1
    seed = block_partition(d.num_inter, 256)

    tiling = benchmark(
        full_sparse_tiling,
        d.loop_sizes(),
        1,
        seed,
        {(0, 1): dependence_edges(d)[(0, 1)]},
        {(1, 2): (0, 1)},
    )
    assert tiling.num_tiles == int(seed.max()) + 1


def test_bench_full_composition_inspector(benchmark, moldyn_mol1):
    machine = machine_by_name("pentium4")
    steps = composition_steps("cpack2x+fst", moldyn_mol1, machine)
    result = benchmark.pedantic(
        lambda: ComposedInspector(steps).run(moldyn_mol1),
        rounds=3,
        iterations=1,
    )
    assert result.tiling is not None
