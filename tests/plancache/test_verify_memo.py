"""Verification verdicts are facts of the dataset they judged: repeated
binds pay the transformed executor pass once, and a clear retires every
verdict."""

import sys
import threading

import pytest

from repro.kernels.specs import kernel_by_name
from repro.runtime import (
    CompositionPlan,
    CPackStep,
    TilePackStep,
    clear_verification_memo,
)
from repro.runtime import verify as verify_mod

from tests.plancache.conftest import tiny_data

pytestmark = [
    pytest.mark.plancache,
    # Every test here binds a deliberately degraded plan.
    pytest.mark.filterwarnings("ignore::repro.errors.DegradedPlanWarning"),
]


def degraded_plan():
    """TilePack without a tiling degrades under 'skip' — which makes
    every bind run the numeric verifier."""
    return CompositionPlan(
        kernel_by_name("moldyn"),
        [CPackStep(), TilePackStep()],
        on_stage_failure="skip",
    )


@pytest.fixture
def counted_verifier(monkeypatch):
    calls = []
    real = verify_mod.verify_numeric_equivalence

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify_mod, "verify_numeric_equivalence", counting)
    return calls


def test_memoized_even_without_a_plan_cache(counted_verifier):
    data = tiny_data("moldyn")
    plan = degraded_plan()
    for _ in range(3):
        result = plan.bind(data)
        assert result.report.verified
    assert len(counted_verifier) == 1


def test_distinct_payloads_are_not_conflated(counted_verifier):
    """The memo key includes payload values — same index arrays with a
    different payload must re-verify."""
    data = tiny_data("moldyn")
    plan = degraded_plan()
    plan.bind(data)
    other = data.copy()
    next(iter(other.arrays.values()))[0] += 1.0
    plan.bind(other)
    assert len(counted_verifier) == 2


def test_distinct_num_steps_are_not_conflated(counted_verifier):
    data = tiny_data("moldyn")
    plan = degraded_plan()
    plan.bind(data, num_steps=1)
    plan.bind(data, num_steps=2)
    plan.bind(data, num_steps=2)
    assert len(counted_verifier) == 2


def test_clear_resets_the_memo(counted_verifier):
    data = tiny_data("moldyn")
    plan = degraded_plan()
    plan.bind(data)
    assert clear_verification_memo() == 1
    plan.bind(data)
    assert len(counted_verifier) == 2


def test_a_dataset_that_is_not_kernel_data_is_verified_every_call(
    counted_verifier,
):
    class Proxy:
        def __init__(self, data):
            self.data = data

        def __getattr__(self, name):
            return getattr(self.data, name)

    data = tiny_data("moldyn")
    plan = degraded_plan()
    result = plan.bind(data)
    proxy = Proxy(data)
    verify_mod.verify_bind(plan, proxy, result, "bind")
    verify_mod.verify_bind(plan, proxy, result, "bind")
    assert len(counted_verifier) == 3


def test_a_verdict_is_kept_per_plan_and_per_maker(counted_verifier):
    data = tiny_data("moldyn")
    plan = degraded_plan()
    result = plan.bind(data)
    other = CompositionPlan(
        kernel_by_name("moldyn"), [TilePackStep()], on_stage_failure="skip"
    )
    verify_mod.verify_bind(other, data, result, "bind")
    verify_mod.verify_bind(plan, data, result, ("patched", "parent", "delta"))
    verify_mod.verify_bind(plan, data, result, "bind")
    assert len(counted_verifier) == 3
    assert clear_verification_memo() == 3


def test_concurrent_verdicts_are_all_counted(monkeypatch):
    """Eight threads record distinct verdicts on one dataset with a short
    switch interval; the clear counts every one of them."""
    monkeypatch.setattr(
        verify_mod, "verify_numeric_equivalence", lambda *args, **kwargs: True
    )
    data = tiny_data("moldyn")
    plan = degraded_plan()
    result = plan.bind(data)
    clear_verification_memo()
    errors = []

    def record(worker):
        try:
            for i in range(500):
                verify_mod.verify_bind(plan, data, result, (worker, i))
        except Exception as exc:  # collected: the assertion names it
            errors.append(exc)

    threads = [threading.Thread(target=record, args=(w,)) for w in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert clear_verification_memo() == 8 * 500
