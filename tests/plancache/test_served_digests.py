"""A plan-cache hit's response digests are facts, not per-request hashes.

The ``left``/``right``/``sigma`` digests are a fact of the plan entry
(``CacheEntry.digests``) and the payload digests a fact of the live
dataset under the entry's ``sigma``.  Two layers pin that:

* differential: on every path that serves a hit — memory tier, disk
  tier, the delta engine's epoch hit, a fleet worker, and two datasets
  that share a bind key but not their payload — the response's
  ``fingerprints`` equal :func:`result_digests` computed fresh;
* counted: a repeated hit on one entry and one dataset calls
  :func:`array_fingerprint` zero times, and a cold or patched bind calls
  it once per served array, as before.
"""

import pytest

import repro.plancache.fingerprint as fingerprint
from repro.kernels.data import make_kernel_data
from repro.kernels.specs import kernel_by_name
from repro.plancache import PlanCache
from repro.plancache.fingerprint import bind_fingerprint
from repro.runtime import CompositionPlan, run_numeric
from repro.runtime.faults import make_drift_delta
from repro.runtime.inspector import CPackStep, FullSparseTilingStep, LexGroupStep
from repro.service import FleetConfig, FleetService, PlanService, ServiceConfig
from repro.service.binder import result_body
from repro.service.request import result_digests

from tests.incremental.conftest import small_delta
from tests.plancache.conftest import tiny_dataset
from tests.service.conftest import direct_digests, make_request

pytestmark = pytest.mark.plancache


def _plan():
    steps = [CPackStep(), LexGroupStep(), FullSparseTilingStep(8)]
    return CompositionPlan(kernel_by_name("moldyn"), steps, name="cpack+lg+fst")


def _data(payload_seed=42):
    return make_kernel_data("moldyn", tiny_dataset(), seed=payload_seed)


def _served(result):
    """What a response answers with, and the same digests hashed fresh."""
    return result_body(result, 0.0)["fingerprints"], result_digests(result)


@pytest.fixture
def count_hashes(monkeypatch):
    """``calls()`` -> array_fingerprint calls since the last read."""
    calls = []
    original = fingerprint.array_fingerprint

    def counting(array):
        calls.append(None)
        return original(array)

    monkeypatch.setattr(fingerprint, "array_fingerprint", counting)

    def read():
        count = len(calls)
        calls.clear()
        return count

    return read


# ---------------------------------------------------------------------------
# differential: every hit path serves the fresh digests


def test_memory_tier_hit(memory_cache):
    plan, data = _plan(), _data()
    cold = plan.bind(data, cache=memory_cache)
    assert cold.digests is None
    for _ in range(2):
        hit = plan.bind(data, cache=memory_cache)
        assert hit.report.cache == "hit"
        response, fresh = _served(hit)
        assert response == fresh == result_digests(cold)


def test_disk_tier_hit(disk_cache):
    plan, data = _plan(), _data()
    cold = plan.bind(data, cache=disk_cache)
    plan.bind(data, cache=disk_cache)  # derives the memory entry's facts
    disk_cache.memory.clear()
    hit = plan.bind(data, cache=disk_cache)
    assert hit.report.cache == "hit"
    assert disk_cache.stats.disk_hits >= 1
    response, fresh = _served(hit)
    assert response == fresh == result_digests(cold)


def test_delta_engine_epoch_hit(memory_cache):
    """A payload-only delta keeps the bind key: the epoch is a ``hit`` on
    the parent's entry, served with the child's payload digests."""
    plan, data = _plan(), _data()
    plan.bind(data, cache=memory_cache)
    delta = make_drift_delta(data, move_rate=0.2, seed=5)
    child = delta.apply(data)
    result = plan.rebind(data, delta, cache=memory_cache, child_data=child)
    assert result.delta_info["mode"] == "hit"
    response, fresh = _served(result)
    assert response == fresh == result_digests(_plan().bind(child))


def test_patched_epoch_hashes_its_own_state(memory_cache):
    plan, data = _plan(), _data()
    plan.bind(data, cache=memory_cache)
    delta = small_delta(data, seed=37)
    result = plan.rebind(data, delta, cache=memory_cache)
    assert result.delta_info["mode"] == "patched"
    assert result.digests is None
    response, fresh = _served(result)
    assert response == fresh


def test_same_bind_key_different_payloads(memory_cache):
    """Two instances over one index structure share a bind key and so an
    entry, but each is served its own payload digests."""
    plan = _plan()
    first, second = _data(payload_seed=1), _data(payload_seed=2)
    plan.bind(first, cache=memory_cache)
    served = {}
    for _ in range(2):
        for name, data in (("first", first), ("second", second)):
            hit = plan.bind(data, cache=memory_cache)
            assert hit.report.cache == "hit"
            response, fresh = _served(hit)
            assert response == fresh == result_digests(_plan().bind(data))
            served.setdefault(name, response)
            assert response == served[name]
    payload = [k for k in served["first"] if k.startswith("payload:")]
    assert payload and all(
        served["first"][k] != served["second"][k] for k in payload
    )
    assert served["first"]["sigma"] == served["second"]["sigma"]


def test_fleet_worker_hit(tmp_path):
    config = FleetConfig(
        shards=1, cache_dir=str(tmp_path / "fleet-cache"), attempt_timeout_s=30.0
    )
    with FleetService(config) as fleet:
        responses = [fleet.bind(make_request()) for _ in range(3)]
    assert [r.cache for r in responses] == ["stored", "hit", "hit"]
    expected = direct_digests()
    assert all(r.fingerprints == expected for r in responses)


def test_result_digests_follow_an_executor_run_in_place(memory_cache):
    """The response's digests are the state as bound; a library caller
    that runs an executor in place on ``result.transformed`` and hashes
    the result gets the live state."""
    plan, data = _plan(), _data()
    plan.bind(data, cache=memory_cache)
    hit = plan.bind(data, cache=memory_cache)
    bound = dict(hit.digests)
    run_numeric(hit.transformed, num_steps=1)
    live = result_digests(hit)
    assert result_body(hit, 0.0)["fingerprints"] == bound
    assert live["sigma"] == bound["sigma"]
    assert live["payload:x"] != bound["payload:x"]


@pytest.mark.parametrize("tier", ["memory", "disk"])
def test_a_plan_entry_is_read_only(tmp_path, tier):
    cache = PlanCache(directory=tmp_path / "plancache")
    plan, data = _plan(), _data()
    plan.bind(data, cache=cache)
    if tier == "disk":
        cache.memory.clear()
    entry = cache.get(bind_fingerprint(plan, data))
    assert entry.meta["tier"] == tier
    for array in entry.arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_digests_are_not_persisted(disk_cache):
    plan, data = _plan(), _data()
    plan.bind(data, cache=disk_cache)
    hit = plan.bind(data, cache=disk_cache)
    entry = disk_cache.get(bind_fingerprint(plan, data))
    assert not any(v in str(entry.meta) for v in hit.digests.values())
    disk_cache.memory.clear()
    loaded = disk_cache.get(bind_fingerprint(plan, data))
    assert loaded is not entry
    assert not any(v in str(loaded.meta) for v in hit.digests.values())


# ---------------------------------------------------------------------------
# counted: a repeated hit hashes nothing


def test_repeated_hit_hashes_no_array(memory_cache, count_hashes):
    plan, data = _plan(), _data()
    served = 3 + len(data.arrays)  # left, right, sigma and each payload array
    count_hashes()
    result_body(plan.bind(data, cache=memory_cache), 0.0)
    assert count_hashes() == served  # cold: hashed once, as it always was
    result_body(plan.bind(data, cache=memory_cache), 0.0)
    assert count_hashes() == served  # the first hit derives the facts
    for _ in range(3):
        body = result_body(plan.bind(data, cache=memory_cache), 0.0)
        assert body["cache"] == "hit"
        assert count_hashes() == 0


def test_patched_bind_hashes_once(memory_cache, count_hashes):
    plan, data = _plan(), _data()
    plan.bind(data, cache=memory_cache)
    delta = small_delta(data, seed=37)
    count_hashes()
    result = plan.rebind(data, delta, cache=memory_cache)
    assert result.delta_info["mode"] == "patched"
    result_body(result, 0.0)
    assert count_hashes() == 3 + len(data.arrays)


def test_service_repeated_hit_hashes_no_array(count_hashes):
    cache = PlanCache(use_disk=False)
    with PlanService(ServiceConfig(workers=1), cache=cache) as service:
        first = service.bind(make_request())
        second = service.bind(make_request())
        count_hashes()
        responses = [service.bind(make_request()) for _ in range(3)]
        assert count_hashes() == 0
    assert first.cache == "stored"
    assert [r.cache for r in [second, *responses]] == ["hit"] * 4
    assert all(r.fingerprints == first.fingerprints for r in responses)
    assert all(r.status == "ok" for r in responses)
