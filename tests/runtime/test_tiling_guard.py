"""The bind-time tiling guard (``runtime.inspector.validate_tiling``).

The guard tests ``theta(src) <= theta(dst)`` with two gathers per node
loop instead of building :func:`dependence_edges`.  Two layers pin that:

* the ``InspectorFault`` each tiling fault raises — message, violation
  count and first positions — recorded when the guard still walked the
  concatenated edge lists;
* a Hypothesis property: on random small instances and random tilings
  the guard passes exactly when :func:`repro.transforms.fst.verify_tiling`
  over :func:`dependence_edges` does.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InspectorFault
from repro.kernels import generate_dataset, kernel_by_name, make_kernel_data
from repro.runtime import CompositionPlan
from repro.runtime.faults import inject
from repro.runtime.inspector import (
    CPackStep,
    FullSparseTilingStep,
    LexGroupStep,
    TilePackStep,
    dependence_edges,
    validate_tiling,
)
from repro.transforms.fst import TilingFunction, verify_tiling

from .conftest import tiny_dataset

HINT = (
    " (hint: the inspector mis-grew the tiles — e.g. a symmetric-dependence "
    "traversal with the wrong orientation)"
)


def _violation(count, pair, indices):
    return (
        f"[stage 2:fst] tiling violates {count} ({pair}) dependences (source "
        f"scheduled after destination) at edge offending indices {indices}"
        + HINT,
        indices,
    )


#: A square random instance: 120 nodes and 120 interactions, so the lying
#: FST's mis-oriented edges stay in range and reach the guard.
SQUARE = tiny_dataset(num_nodes=120, num_inter=120, seed=3)

#: ``(dataset, kernel, fault) -> (str(error), error.indices)``, or ``None``
#: where the bind succeeds: nbf has one node loop, so no symmetric pair to
#: lie about.
REPORTS = {
    ("square", "moldyn", "scramble-tiling"): _violation(
        224, "loop 0 -> loop 1", [0, 1, 2, 3, 4]
    ),
    ("square", "moldyn", "lie-about-symmetry"): _violation(
        138, "loop 1 -> loop 2", [16, 20, 21, 33, 36]
    ),
    ("square", "nbf", "scramble-tiling"): _violation(
        207, "loop 0 -> loop 1", [0, 1, 2, 3, 4]
    ),
    ("square", "nbf", "lie-about-symmetry"): None,
    ("mol1", "moldyn", "scramble-tiling"): _violation(
        7424, "loop 0 -> loop 1", [0, 1, 2, 3, 4]
    ),
    ("mol1", "nbf", "scramble-tiling"): _violation(
        7349, "loop 0 -> loop 1", [0, 1, 2, 3, 4]
    ),
}


def _dataset(name):
    return SQUARE if name == "square" else generate_dataset(name, scale=256)


@pytest.mark.parametrize("dataset,kernel,fault", sorted(REPORTS))
def test_fault_report_is_pinned(dataset, kernel, fault):
    steps = [CPackStep(), LexGroupStep(), FullSparseTilingStep(16), TilePackStep()]
    plan = CompositionPlan(
        kernel_by_name(kernel),
        inject(steps, stage=2, fault=fault),
        validation="permissive",  # random data has duplicate edges
    )
    data = make_kernel_data(kernel, _dataset(dataset))
    expected = REPORTS[dataset, kernel, fault]
    if expected is None:
        plan.bind(data)
        return
    with pytest.raises(InspectorFault) as info:
        plan.bind(data)
    assert (str(info.value), info.value.indices) == expected


@st.composite
def tiled_instances(draw):
    kernel = draw(st.sampled_from(["moldyn", "nbf", "irreg"]))
    num_nodes = draw(st.integers(1, 12))
    num_inter = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**31 - 1))
    data = make_kernel_data(
        kernel, tiny_dataset(num_nodes=num_nodes, num_inter=num_inter, seed=seed)
    )
    num_tiles = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    tiles = [rng.integers(0, num_tiles, size) for size in data.loop_sizes()]
    if draw(st.booleans()):
        # Pull every node loop's tiles to the legal bound (the earliest /
        # latest tile of the interactions touching the node), then maybe
        # move one node a tile too far: legal and barely illegal tilings.
        p_j = data.interaction_loop_position()
        for pos in data.node_loop_positions():
            if pos < p_j:
                bound = np.full(data.num_nodes, num_tiles - 1)
                np.minimum.at(bound, data.left, tiles[p_j])
                np.minimum.at(bound, data.right, tiles[p_j])
            else:
                bound = np.zeros(data.num_nodes, dtype=np.int64)
                np.maximum.at(bound, data.left, tiles[p_j])
                np.maximum.at(bound, data.right, tiles[p_j])
            tiles[pos] = bound
        if draw(st.booleans()):
            pos = draw(st.sampled_from(data.node_loop_positions()))
            node = draw(st.integers(0, data.num_nodes - 1))
            step = 1 if pos > p_j else -1
            tiles[pos][node] = min(max(tiles[pos][node] - step, 0), num_tiles - 1)
    return data, TilingFunction(tiles, num_tiles)


@given(tiled_instances())
@settings(max_examples=200, deadline=None)
def test_guard_verdict_equals_verify_tiling(instance):
    data, tiling = instance
    legal = verify_tiling(tiling, dependence_edges(data))
    state = SimpleNamespace(data=data, tiling=tiling)
    if legal:
        validate_tiling(state, "0:fst")
        return
    with pytest.raises(InspectorFault, match=r"tiling violates \d+ \(loop"):
        validate_tiling(state, "0:fst")
