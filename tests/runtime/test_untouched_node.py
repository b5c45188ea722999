"""A node that no interaction touches, under a sparse tiling.

Moldyn's ``d(S1->S4:vx)`` has ``s = s'`` and ``x = x'``: in one time
step ``Li(n)`` reads ``vx[n]`` before ``Lk(n)`` writes it, so a legal
tiling keeps ``tiles[Li][n] <= tiles[Lk][n]``.  For a node some
interaction touches that follows through the interaction's edges; for an
untouched node only the guard's check-only node-loop pair
(:func:`repro.transforms.fst.node_loop_edges`) sees it.  Cache blocking
used to put such a node's ``Lk`` iteration in tile 0 while its ``Li``
iteration kept its seed block, and the bind served a wrong ``x`` for it.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import InspectorFault
from repro.kernels import generate_dataset, kernel_by_name, make_kernel_data
from repro.kernels.data import KernelData
from repro.lowering import toolchain
from repro.runtime import CompositionPlan, run_numeric, run_numeric_wavefront
from repro.runtime.inspector import (
    CacheBlockStep,
    CPackStep,
    FullSparseTilingStep,
    validate_tiling,
)

BACKENDS = ["numpy"] + (["c"] if toolchain.have_toolchain()[0] else [])

COMPOSITIONS = {
    "cb": lambda: [CacheBlockStep(64)],
    "cpack+cb": lambda: [CPackStep(), CacheBlockStep(64)],
    "fst": lambda: [FullSparseTilingStep(64)],
}


def with_untouched_node() -> KernelData:
    """Moldyn on mol1@64 plus one node that no interaction touches."""
    base = make_kernel_data("moldyn", generate_dataset("mol1", scale=64))
    rng = np.random.default_rng(0)
    return KernelData(
        kernel_name="moldyn",
        dataset_name="mol1+untouched",
        num_nodes=base.num_nodes + 1,
        left=base.left.copy(),
        right=base.right.copy(),
        arrays={
            name: np.append(array, rng.random())
            for name, array in base.arrays.items()
        },
    )


@pytest.fixture(scope="module")
def data():
    return with_untouched_node()


def _bind(data, composition):
    plan = CompositionPlan(kernel_by_name("moldyn"), COMPOSITIONS[composition]())
    return plan.bind(data.copy(), verify=True)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("composition", sorted(COMPOSITIONS))
def test_the_served_schedule_gives_the_untiled_answer(data, composition, backend):
    result = _bind(data, composition)
    node = int(result.sigma_nodes.array[data.num_nodes - 1])
    li, lk = data.node_loop_positions()
    assert result.tiling.tiles[li][node] <= result.tiling.tiles[lk][node]

    tiled = result.transformed.copy()
    run_numeric_wavefront(
        tiled, result.tiling.schedule(), num_steps=2, backend=backend
    )
    untiled = run_numeric(data.copy(), num_steps=2, backend=backend)
    for name, expected in untiled.arrays.items():
        served = result.sigma_nodes.inverse().apply_to_data(tiled.arrays[name])
        np.testing.assert_allclose(served, expected, rtol=1e-9, atol=1e-12)


def test_cache_blocking_keeps_the_node_in_its_li_tile(data):
    result = _bind(data, "cb")
    node = data.num_nodes - 1  # no data reordering: the node keeps its id
    li, lk = data.node_loop_positions()
    assert result.tiling.tiles[li][node] > 0  # the case tile 0 got wrong
    assert result.tiling.tiles[lk][node] == result.tiling.tiles[li][node]


def test_the_guard_rejects_the_node_run_before_its_li_iteration(data):
    result = _bind(data, "cb")
    node = data.num_nodes - 1
    li, lk = data.node_loop_positions()
    tiling = result.tiling
    tiling.tiles[lk] = tiling.tiles[lk].copy()
    tiling.tiles[lk][node] = 0  # where cache blocking used to put it
    state = SimpleNamespace(data=result.transformed, tiling=tiling)
    with pytest.raises(InspectorFault) as info:
        validate_tiling(state, "0:cb")
    assert f"tiling violates 1 (loop {li} -> loop {lk}) dependences" in str(
        info.value
    )
    assert info.value.indices == [node]
