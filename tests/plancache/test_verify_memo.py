"""Verification memo: repeated binds pay the transformed executor pass
once, and eviction at the limit is safe under concurrent binds."""

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


def test_memo_bypassed_without_key(counted_verifier):
    data = tiny_data("moldyn")
    plan = degraded_plan()
    result = plan.bind(data)
    verify_mod.verify_numeric_equivalence_memoized(data, result, memo_key=None)
    verify_mod.verify_numeric_equivalence_memoized(data, result, memo_key=None)
    assert len(counted_verifier) == 3


class _EvictedUnderfoot(dict):
    """A memo whose oldest key another service worker evicts between this
    thread reading that key and popping it: the interleaving of two
    threads that reach the limit together, forced in one thread."""

    def __iter__(self):
        keys = list(dict.__iter__(self))
        if keys:
            dict.pop(self, keys[0])
        return iter(keys)


def test_eviction_tolerates_a_key_another_thread_evicted(monkeypatch):
    memo = _EvictedUnderfoot({("oldest",): True, ("newer",): True})
    monkeypatch.setattr(verify_mod, "_VERIFICATION_MEMO", memo)
    monkeypatch.setattr(verify_mod, "_VERIFICATION_MEMO_LIMIT", 2)
    result = degraded_plan().bind(tiny_data("moldyn"))
    assert result.report.verified
    assert len(memo) == 2 and ("newer",) in memo


def test_concurrent_eviction_stress(monkeypatch):
    """Eight threads insert past a small limit with a short switch
    interval; no insert raises, and the memo stays near its bound."""
    monkeypatch.setattr(verify_mod, "_VERIFICATION_MEMO", {})
    monkeypatch.setattr(verify_mod, "_VERIFICATION_MEMO_LIMIT", 4)
    monkeypatch.setattr(
        verify_mod, "verify_numeric_equivalence", lambda *args, **kwargs: True
    )
    errors = []

    def insert(worker):
        try:
            for i in range(2000):
                verify_mod.verify_numeric_equivalence_memoized(
                    None, None, memo_key=f"{worker}/{i}"
                )
        except Exception as exc:  # collected: the assertion names it
            errors.append(exc)

    threads = [threading.Thread(target=insert, args=(w,)) for w in range(8)]
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
    assert len(verify_mod._VERIFICATION_MEMO) <= 4 + len(threads)
