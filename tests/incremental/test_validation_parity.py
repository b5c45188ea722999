"""A delta-bind must reject what a cold bind of the same child rejects.

Under strict validation a cold ``plan.bind(child)`` raises a
``ValidationError`` for a child with a self-loop, a duplicate edge or a
NaN payload value.  ``plan.rebind`` validates the delta's shape against
the parent; only its fallback path (a cold bind) validates the child's
content, so it answers ``patched`` (or ``hit``, when only payload
moved) for all three.  The disagreement is recorded here as a strict
xfail; validating every child costs one full validation per epoch, so
the delta engine's redesign decides how it is closed.

A patched stage runs in the composed inspector's one stage loop, so it
meets the same tiling guard and the same typed wrapping of a crash as a
cold stage: a stage that corrupts or crashes on the child makes
``rebind`` raise what a cold bind of the child raises, after one
counted fallback.
"""

import numpy as np
import pytest

from repro.errors import InspectorFault, ValidationError
from repro.incremental import DatasetDelta
from repro.kernels import generate_dataset, make_kernel_data
from repro.kernels.specs import kernel_by_name
from repro.plancache import PlanCache
from repro.runtime import CompositionPlan, plan_from_spec
from repro.runtime.faults import _scramble_tiling
from repro.runtime.inspector import CPackStep, FullSparseTilingStep

from tests.incremental.conftest import small_delta

pytestmark = pytest.mark.streaming

SPEC = {"kernel": "moldyn", "name": "cf", "steps": ["cpack", "fst"]}


@pytest.fixture(scope="module")
def parent():
    return make_kernel_data("moldyn", generate_dataset("mol1", scale=32))


def _delta(case, data):
    if case == "self-loop":
        return DatasetDelta(added_left=[5], added_right=[5])
    if case == "duplicate-edge":
        return DatasetDelta(
            added_left=[int(data.left[0])], added_right=[int(data.right[0])]
        )
    return DatasetDelta(
        moved_nodes=[3], moved_arrays={name: [np.nan] for name in data.arrays}
    )


CASES = ["self-loop", "duplicate-edge", "nan-payload"]


@pytest.mark.parametrize("case", CASES)
def test_a_cold_bind_rejects_the_child(parent, case):
    child = _delta(case, parent).validate(parent).apply(parent)
    with pytest.raises(ValidationError, match="strict validation"):
        plan_from_spec(SPEC).bind(child)


@pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="defect: the patched and hit paths of plan.rebind never "
    "validate the child dataset, so under strict validation they accept "
    "a child that a cold bind rejects",
)
@pytest.mark.parametrize("case", CASES)
def test_a_rebind_rejects_the_child(parent, case, tmp_path):
    plan = plan_from_spec(SPEC)
    cache = PlanCache(directory=tmp_path / "cache")
    plan.bind(parent, cache=cache)
    delta = _delta(case, parent).validate(parent)
    with pytest.raises(ValidationError, match="strict validation"):
        plan.rebind(parent, delta, cache=cache)


class _ArmedTiling(FullSparseTilingStep):
    """FST that keeps its delta rule and, once armed, scrambles its
    tiling (``corrupt``) or raises mid-run (``crash``).  It is armed on
    the class: an instance attribute would move the plan's cache key."""

    armed = None

    def tile(self, state, counter):
        tiling = super().tile(state, counter)
        if self.armed == "crash":
            raise IndexError("index 7 is out of bounds for the seed")
        if self.armed == "corrupt":
            return _scramble_tiling(tiling, None)
        return tiling


@pytest.mark.parametrize("armed", ["corrupt", "crash"])
def test_a_patched_stage_fails_as_a_cold_one(
    parent, armed, tmp_path, monkeypatch
):
    plan = CompositionPlan(
        kernel_by_name("moldyn"), [CPackStep(), _ArmedTiling()], name="cf"
    )
    assert _ArmedTiling.delta is FullSparseTilingStep.delta
    cache = PlanCache(directory=tmp_path / "cache")
    plan.bind(parent, cache=cache)
    delta = small_delta(parent, seed=3)
    child = delta.apply(parent)
    # Unarmed, the child is patched: the stage loop is what must catch it.
    probe = PlanCache(use_disk=False)
    plan.bind(parent, cache=probe)
    assert plan.rebind(parent, delta, cache=probe).delta_info["mode"] == "patched"
    monkeypatch.setattr(_ArmedTiling, "armed", armed)

    with pytest.raises(InspectorFault) as cold:
        plan.bind(child)
    with pytest.raises(InspectorFault) as rebound:
        plan.rebind(parent, delta, cache=cache)
    assert str(rebound.value) == str(cold.value)
    assert rebound.value.stage == cold.value.stage == "1:fst"
    assert cache.stats.delta_fallbacks == 1
    assert cache.stats.delta_patched == 0
