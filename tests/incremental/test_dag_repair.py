"""``repair_tile_dag``: the tile graph of a (patched) tiling is a fresh
build, bit for bit, whatever parent graph it is handed."""

import dataclasses

import numpy as np
import pytest

from repro.incremental import repair_tile_dag
from repro.kernels.specs import kernel_by_name
from repro.plancache import PlanCache
from repro.runtime import CompositionPlan
from repro.runtime.inspector import (
    CPackStep,
    FullSparseTilingStep,
    LexGroupStep,
)

from tests.incremental.conftest import tiny_data

pytestmark = pytest.mark.streaming


def _bound_parent():
    plan = CompositionPlan(
        kernel_by_name("moldyn"),
        [CPackStep(), LexGroupStep(), FullSparseTilingStep(8)],
        name="cpack+lg+fst",
    )
    return plan.bind(tiny_data(), cache=PlanCache(use_disk=False))


def _assert_same_dag(a, b):
    assert a.num_tiles == b.num_tiles
    assert np.array_equal(a.indegree, b.indegree)
    assert np.array_equal(a.succ_indptr, b.succ_indptr)
    assert np.array_equal(a.succ_indices, b.succ_indices)


def test_fresh_build_matches_canonical_constructor():
    parent = _bound_parent()
    dag = repair_tile_dag(None, parent.tiling, parent.transformed)
    assert dag.num_tiles == parent.tiling.num_tiles
    again = repair_tile_dag(None, parent.tiling, parent.transformed)
    _assert_same_dag(dag, again)


def test_tile_count_change_rebuilds_fresh():
    parent = _bound_parent()
    real = repair_tile_dag(None, parent.tiling, parent.transformed)
    shrunk = dataclasses.replace(
        real,
        num_tiles=real.num_tiles + 1,
        indegree=np.append(real.indegree, 0),
    )
    rebuilt = repair_tile_dag(shrunk, parent.tiling, parent.transformed)
    _assert_same_dag(rebuilt, real)
