"""The bind-time tiling guard (``runtime.inspector.validate_tiling``).

The guard is :func:`repro.transforms.fst.check_tiling` over
:func:`dependence_edges`' per-access edge sets: two gathers per edge
set.  Two layers pin that:

* the ``InspectorFault`` each tiling fault raises — message, violation
  count and first positions — recorded when the guard still walked the
  concatenated edge lists;
* a Hypothesis property: on random small instances and random tilings
  the guard passes exactly when the concatenated-edge oracle
  (:func:`tests.transforms.tiling_oracle.verify_tiling`) over
  :func:`dependence_edges` and the check-only node-loop pair
  (:func:`~repro.transforms.fst.node_loop_edges`) does.

The stage loop guards a stage that assigns a tiling, once: the
renumbering inside ``apply_data_reordering`` /
``apply_iteration_reordering`` keeps a legal tiling legal (a second
property) and is not re-guarded.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InspectorFault
from repro.kernels import generate_dataset, kernel_by_name, make_kernel_data
from repro.runtime import CompositionPlan
from repro.runtime.faults import _scramble_tiling, inject
from repro.runtime.inspector import (
    CPackStep,
    FullSparseTilingStep,
    InspectorState,
    LexGroupStep,
    TilePackStep,
    dependence_edges,
    validate_tiling,
)
from repro.transforms.base import ReorderingFunction, identity_reordering
from repro.transforms.fst import TilingFunction, node_loop_edges
from tests.transforms.tiling_oracle import verify_tiling

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


def every_dependence(data):
    """The edge sets the guard checks: the inspectors' and the node-loop
    pair that holds for a node no interaction touches."""
    return {
        **dependence_edges(data),
        **node_loop_edges(data.num_nodes, data.node_loop_positions()),
    }


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
    legal = verify_tiling(tiling, every_dependence(data))
    state = SimpleNamespace(data=data, tiling=tiling)
    if legal:
        validate_tiling(state, "0:fst")
        return
    with pytest.raises(InspectorFault, match=r"tiling violates \d+ \(loop"):
        validate_tiling(state, "0:fst")


# ---------------------------------------------------------------------------
# The guard checks a tiling once: renumbering does not re-guard it.


def _legal(data, tiling):
    return verify_tiling(tiling, every_dependence(data))


@given(tiled_instances(), st.lists(st.booleans(), min_size=1, max_size=4), st.data())
@settings(max_examples=100, deadline=None)
def test_renumbering_keeps_a_legal_tiling_legal(instance, kinds, draw):
    """Any permutation applied through ``apply_data_reordering`` /
    ``apply_iteration_reordering`` moves both ends of every dependence
    and the tiles with them, so a legal tiling stays legal — and stays
    the same object, which is what exempts it from the guard."""
    data, tiling = instance
    if not _legal(data, tiling):
        return
    state = InspectorState(
        data=data.copy(),
        remap="once",
        sigma_total=identity_reordering(data.num_nodes, "sigma"),
        tiling=tiling,
    )
    p_j = data.interaction_loop_position()
    for data_kind in kinds:
        size = data.num_nodes if data_kind else data.num_inter
        perm = np.asarray(draw.draw(st.permutations(range(size))), dtype=np.int64)
        reordering = ReorderingFunction("perm", perm)
        if data_kind:
            state.apply_data_reordering(reordering, "renumber")
        else:
            state.apply_iteration_reordering(p_j, reordering, "renumber")
        assert state.tiling is tiling
        assert _legal(state.data, state.tiling)
        validate_tiling(state, "0:renumber")


class _NodeStepInstallingBadTiles(CPackStep):
    """A node-domain data reordering that also installs a tiling whose
    first loop runs entirely in the last tile."""

    name = "cpack-bad-tiles"

    def run(self, state):
        super().run(state)
        state.tiling = _scramble_tiling(state.tiling, None)


def test_a_node_domain_stage_installing_a_bad_tiling_is_caught():
    assert _NodeStepInstallingBadTiles.symbol_domain == "nodes"
    steps = [
        CPackStep(),
        LexGroupStep(),
        FullSparseTilingStep(16),
        _NodeStepInstallingBadTiles(),
    ]
    plan = CompositionPlan(
        kernel_by_name("moldyn"), steps, validation="permissive"
    )
    with pytest.raises(InspectorFault) as info:
        plan.bind(make_kernel_data("moldyn", SQUARE))
    assert info.value.stage == "3:cpack-bad-tiles"
    assert "tiling violates" in str(info.value)


def test_the_guard_runs_once_per_tiling(monkeypatch):
    """``fst`` installs the tiling and is guarded; ``tilepack`` only
    renumbers it and is not."""
    from repro.runtime import inspector

    stages = []
    real = inspector.validate_tiling

    def counting(state, stage):
        stages.append(stage)
        real(state, stage)

    monkeypatch.setattr(inspector, "validate_tiling", counting)
    steps = [CPackStep(), LexGroupStep(), FullSparseTilingStep(16), TilePackStep()]
    plan = CompositionPlan(
        kernel_by_name("moldyn"), steps, validation="permissive"
    )
    result = plan.bind(make_kernel_data("moldyn", SQUARE))
    assert stages == ["2:fst"]
    assert _legal(result.transformed, result.tiling)
