"""Bit-identity of patched stages: a delta-bind must equal a cold bind
of the canonical mutated dataset on every realized array, across
compositions, drift shapes, and kernels (property-tested)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.incremental.rules import plan_delta_eligibility
from repro.kernels.specs import kernel_by_name
from repro.plancache import PlanCache
from repro.runtime import CompositionPlan
from repro.runtime.inspector import (
    BucketTilingStep,
    CacheBlockStep,
    CPackStep,
    FullSparseTilingStep,
    GPartStep,
    LexGroupStep,
    LexSortStep,
    RCMStep,
    SpaceFillingStep,
)

from tests.incremental.conftest import (
    assert_bit_identical,
    small_delta,
    tiny_data,
)

pytestmark = pytest.mark.streaming

RECIPES = {
    "cpack": lambda: [CPackStep()],
    "cpack+lg": lambda: [CPackStep(), LexGroupStep()],
    "cpack+ls": lambda: [CPackStep(), LexSortStep()],
    # Bucket wide enough that rank compaction cannot cross a boundary;
    # narrow buckets exercise the monotonicity backstop instead (below).
    "cpack+bt": lambda: [CPackStep(), BucketTilingStep(64)],
    "cpack+lg+fst": lambda: [
        CPackStep(), LexGroupStep(), FullSparseTilingStep(8),
    ],
}


def _rebind_vs_cold(kernel, steps, delta_kwargs, name):
    data = tiny_data(kernel)
    delta = small_delta(data, **delta_kwargs)
    plan = CompositionPlan(kernel_by_name(kernel), steps, name=name)
    cache = PlanCache(use_disk=False)
    plan.bind(data, cache=cache)
    patched = plan.rebind(data, delta, cache=cache)
    cold = plan.bind(delta.apply(data), cache=PlanCache(use_disk=False))
    return patched, cold


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_patched_equals_cold(name):
    # 4/80 rows churned: within every recipe's threshold (fst caps at 0.05).
    patched, cold = _rebind_vs_cold(
        "moldyn", RECIPES[name](), dict(removed=2, added=2, seed=11), name
    )
    assert patched.delta_info["mode"] == "patched", patched.delta_info
    assert patched.report.verified is True
    assert_bit_identical(patched, cold)


@pytest.mark.parametrize(
    "delta_kwargs",
    [
        dict(removed=5, added=0),   # pure excision
        dict(removed=0, added=5),   # pure growth
        dict(removed=3, added=3, moved=3),  # churn + payload motion
    ],
    ids=["remove-only", "add-only", "mixed+moved"],
)
def test_drift_shapes(delta_kwargs):
    patched, cold = _rebind_vs_cold(
        "moldyn",
        [CPackStep(), LexGroupStep()],
        dict(seed=13, **delta_kwargs),
        "cpack+lg",
    )
    assert patched.delta_info["mode"] == "patched", patched.delta_info
    assert_bit_identical(patched, cold)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kernel=st.sampled_from(["moldyn", "nbf", "irreg"]),
    removed=st.integers(min_value=0, max_value=6),
    added=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=1_000),
)
def test_patched_equals_cold_property(kernel, removed, added, seed):
    patched, cold = _rebind_vs_cold(
        kernel,
        [CPackStep(), LexGroupStep()],
        dict(removed=removed, added=added, seed=seed),
        "cpack+lg",
    )
    # Over-threshold samples legitimately fall back; whatever the path,
    # the realized bind must equal cold bit for bit.
    assert patched.delta_info["mode"] in ("patched", "hit", "fallback")
    assert_bit_identical(patched, cold)


def test_bucket_boundary_shift_caught_by_backstop():
    """Narrow buckets re-key rows whose first-touch key did not change
    (every later rank shifts under an excision), which the strict
    monotonicity check catches — the engine falls back rather than emit
    a wrong order, and the result is still bit-identical to cold."""
    patched, cold = _rebind_vs_cold(
        "moldyn",
        [CPackStep(), BucketTilingStep(4)],
        dict(removed=3, added=3, seed=11),
        "cpack+bt4",
    )
    assert patched.delta_info["mode"] in ("patched", "fallback")
    assert_bit_identical(patched, cold)


class TestEligibility:
    def test_registry_covers_every_threshold_claim(self):
        assert CPackStep.delta.max_drift == pytest.approx(0.10)
        assert FullSparseTilingStep.delta.max_drift == pytest.approx(0.05)
        for cls in (GPartStep, RCMStep, SpaceFillingStep, CacheBlockStep):
            assert cls.delta.max_drift == 0.0
            assert cls.delta.patch is None

    def test_drift_over_threshold_refused(self):
        ok, reason = plan_delta_eligibility([CPackStep()], drift=0.2)
        assert not ok and "exceeds threshold" in reason

    def test_global_traversal_refused_at_any_drift(self):
        ok, reason = plan_delta_eligibility(
            [GPartStep(4), LexGroupStep()], drift=0.01
        )
        assert not ok and "gpart" in reason

    def test_cpack_must_lead(self):
        ok, reason = plan_delta_eligibility(
            [LexGroupStep(), CPackStep()], drift=0.01
        )
        assert not ok and "stage 0 only" in reason

    def test_merge_needs_canonical_row_order(self):
        ok, reason = plan_delta_eligibility(
            [CPackStep(), LexGroupStep(), LexSortStep()], drift=0.01
        )
        assert not ok and "canonical row order" in reason

    def test_zero_drift_skips_supports_gate(self):
        ok, reason = plan_delta_eligibility(
            [CPackStep(), LexGroupStep()], drift=0.0
        )
        assert ok, reason
