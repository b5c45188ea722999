"""A delta-bind must reject what a cold bind of the same child rejects.

Under strict validation a cold ``plan.bind(child)`` raises a
``ValidationError`` for a child with a self-loop, a duplicate edge or a
NaN payload value.  ``plan.rebind`` validates the delta's shape against
the parent; only its fallback path (a cold bind) validates the child's
content, so it answers ``patched`` (or ``hit``, when only payload
moved) for all three.  The disagreement is recorded here as a strict
xfail; validating every child costs one full validation per epoch, so
the delta engine's redesign decides how it is closed.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.incremental import DatasetDelta
from repro.kernels import generate_dataset, make_kernel_data
from repro.plancache import PlanCache
from repro.runtime import plan_from_spec

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
