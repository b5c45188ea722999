"""Typed step parameters from outside input.

Every parameter of every spec-constructible step, fed each of a set of
ill-typed or out-of-range values through a plan spec: a ``ValidationError``
naming the stage and the parameter, both from ``plan_from_spec`` and as
the bind service's typed error response — never a bind with a silently
coerced value.  Integers take ``numbers.Integral`` (not ``bool``), must
be positive and are stored as ``int``; booleans take ``bool`` only.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.runtime import make_step, plan_from_spec
from repro.runtime.steps import STEP_TYPES

#: ``(spec type, parameter, declared type)`` for every spec parameter.
PARAMETERS = [
    (spec_type, param.name, param.type)
    for spec_type, cls in sorted(STEP_TYPES.items())
    for param in cls.params
]

VALUES = [True, 64.0, 64.5, "64", 0, -1, None]


def _accepts(kind, value) -> bool:
    return kind is bool and value is True


def _spec(spec_type, name, value):
    return {"kernel": "moldyn", "steps": [{"type": spec_type, name: value}]}


CASES = [
    pytest.param(spec_type, name, kind, value, id=f"{spec_type}.{name}={value!r}")
    for spec_type, name, kind in PARAMETERS
    for value in VALUES
]


def test_every_parameter_is_covered():
    assert {(t, n) for t, n, _ in PARAMETERS} == {
        ("bucket", "bucket_size"),
        ("cacheblock", "seed_block_size"),
        ("fst", "seed_block_size"),
        ("fst", "use_symmetry"),
        ("gpart", "partition_size"),
    }


@pytest.mark.parametrize("spec_type,name,kind,value", CASES)
def test_plan_from_spec(spec_type, name, kind, value):
    spec = _spec(spec_type, name, value)
    if _accepts(kind, value):
        assert getattr(plan_from_spec(spec).steps[0], name) is value
        return
    with pytest.raises(ValidationError) as exc:
        plan_from_spec(spec)
    stage = STEP_TYPES[spec_type].name
    assert exc.value.stage == stage
    assert repr(name) in str(exc.value) and repr(stage) in str(exc.value)


@pytest.fixture(scope="module")
def service():
    from repro.service import PlanService, ServiceConfig

    with PlanService(ServiceConfig(workers=1, queue_depth=4), cache=None) as svc:
        yield svc


@pytest.mark.service
@pytest.mark.parametrize("spec_type,name,kind,value", CASES)
def test_service_spec_path(spec_type, name, kind, value, service):
    from repro.service import BindRequest

    response = service.bind(
        BindRequest(spec=_spec(spec_type, name, value), dataset="mol1", scale=256)
    )
    if _accepts(kind, value):
        assert response.status == "ok", response.error
        return
    assert response.status == "error"
    assert response.error["type"] == "ValidationError"
    assert repr(name) in response.error["message"]


@pytest.mark.parametrize(
    "value", [64, np.int64(64), np.int32(64)], ids=["int", "int64", "int32"]
)
def test_integral_values_normalize_to_one_step(value):
    """Any integral spelling binds the same step under the same key."""
    from repro.plancache.fingerprint import step_fingerprint

    step = make_step("fst", seed_block_size=value)
    assert type(step.seed_block_size) is int
    assert step_fingerprint(step) == step_fingerprint(make_step("fst", seed_block_size=64))


def test_constructor_takes_the_same_check():
    from repro.runtime import FullSparseTilingStep, GPartStep

    with pytest.raises(ValidationError, match="'partition_size' must be"):
        GPartStep(1e9)
    with pytest.raises(ValidationError, match="'use_symmetry' must be a bool"):
        FullSparseTilingStep(64, "no")
    with pytest.raises(ValidationError, match="unexpected"):
        FullSparseTilingStep(64, True, 3)
    assert GPartStep().partition_size == 128
