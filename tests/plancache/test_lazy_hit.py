"""A plan-cache hit builds its executor state on first read.

A hit answers with digests, its report and ``overhead``; only an
executor reads ``transformed`` (the widened index arrays and the
payload gathered under ``sigma``) and ``tiling``.  So a hit runs every
check of the entry before it answers, and builds the state the first
time one of those attributes is read, once:

* a repeated hit through :class:`~repro.service.binder.LocalBinder`
  builds nothing (the hit that first derives the digest facts builds it
  once, to hash it);
* once read, the state is bit-identical to a cold bind's, in ``int64``
  arrays of the result's own, and hashes to ``result.digests``;
* a planted bad ``sigma`` or length mismatch is a safe miss at
  ``lookup``, with nothing built;
* two threads reading first get one object; ``verify=True`` on a hit
  builds and verifies.
"""

import threading
import time

import numpy as np
import pytest

from repro.kernels.data import make_kernel_data
from repro.kernels.specs import kernel_by_name
from repro.plancache import memo
from repro.plancache.fingerprint import bind_fingerprint
from repro.plancache.store import CacheEntry
from repro.runtime import CompositionPlan
from repro.runtime.inspector import CPackStep, FullSparseTilingStep, LexGroupStep
from repro.service.binder import LocalBinder
from repro.service.request import result_digests

from tests.plancache.conftest import tiny_dataset
from tests.service.conftest import make_request

pytestmark = pytest.mark.plancache


def _plan():
    steps = [CPackStep(), LexGroupStep(), FullSparseTilingStep(8)]
    return CompositionPlan(kernel_by_name("moldyn"), steps, name="cpack+lg+fst")


def _data():
    return make_kernel_data("moldyn", tiny_dataset(), seed=42)


@pytest.fixture
def builds(monkeypatch):
    """``builds()`` -> executor states built since the last read.  The
    builder is the only code that constructs a ``KernelData`` in
    :mod:`repro.plancache.memo`; ``builds.delay`` slows each build."""
    calls = []
    original = memo.KernelData

    def counting(**fields):
        calls.append(None)
        time.sleep(read.delay)
        return original(**fields)

    monkeypatch.setattr(memo, "KernelData", counting)

    def read():
        count = len(calls)
        calls.clear()
        return count

    read.delay = 0.0
    return read


def _warm_hit(cache, data, plan=None):
    """A hit on an entry whose digest facts are already derived."""
    plan = plan or _plan()
    assert plan.bind(data, cache=cache).report.cache == "stored"
    assert plan.bind(data, cache=cache).report.cache == "hit"
    return plan


def test_repeated_hit_through_the_binder_builds_nothing(memory_cache, builds):
    binder = LocalBinder(memory_cache)
    request = make_request()
    plan = _plan()
    _, stored = binder.bind(request, plan)
    assert stored["cache"] == "stored"
    assert builds() == 0  # a cold bind hands over the state it holds
    _, first = binder.bind(request, plan)
    assert first["cache"] == "hit"
    assert builds() == 1  # derives the digest facts: hashes the state once
    for _ in range(3):
        result, body = binder.bind(request, plan)
        assert body["cache"] == "hit"
        assert body["fingerprints"] == first["fingerprints"]
        assert builds() == 0
    result.transformed
    result.tiling
    assert builds() == 1  # the first read builds it, once
    result.plan
    assert builds() == 0


def test_read_state_is_the_cold_state(memory_cache, builds):
    data = _data()
    plan = _warm_hit(memory_cache, data)
    cold = _plan().bind(data)
    builds()
    hit = plan.bind(data, cache=memory_cache)
    assert builds() == 0
    tiling = hit.tiling
    transformed = hit.transformed
    assert builds() == 1
    for name in ("left", "right"):
        served = getattr(transformed, name)
        assert served.dtype == np.int64 and served.flags.writeable
        assert served.tobytes() == getattr(cold.transformed, name).tobytes()
    assert transformed.arrays.keys() == cold.transformed.arrays.keys()
    for name, array in transformed.arrays.items():
        assert array.tobytes() == cold.transformed.arrays[name].tobytes()
        assert not np.may_share_memory(array, data.arrays[name])
    assert tiling.num_tiles == cold.tiling.num_tiles
    for served, expected in zip(tiling.tiles, cold.tiling.tiles, strict=True):
        assert served.dtype == np.int64 and served.flags.writeable
        assert served.tobytes() == expected.tobytes()
    entry = memory_cache.get(bind_fingerprint(plan, data))
    for array in (transformed.left, transformed.right, *tiling.tiles):
        assert not any(np.may_share_memory(array, a) for a in entry.arrays.values())
    assert result_digests(hit) == hit.digests == result_digests(cold)


def test_assigned_state_is_kept(memory_cache):
    data = _data()
    plan = _warm_hit(memory_cache, data)
    hit = plan.bind(data, cache=memory_cache)
    replacement = hit.transformed.copy()
    hit.transformed = replacement
    assert hit.transformed is replacement
    assert hit.tiling is not None


def _planted(entry, **arrays):
    return CacheEntry(meta=dict(entry.meta), arrays={**entry.arrays, **arrays})


@pytest.mark.parametrize(
    "plant",
    [
        pytest.param(lambda a: {"sigma": np.zeros_like(a["sigma"])}, id="bad-sigma"),
        pytest.param(lambda a: {"sigma": a["sigma"][:-1]}, id="short-sigma"),
        pytest.param(lambda a: {"left": a["left"][:-1]}, id="short-left"),
        pytest.param(lambda a: {"right": a["right"][:-1]}, id="short-right"),
        pytest.param(lambda a: {"tile__1": a["tile__1"][:-1]}, id="short-tile"),
    ],
)
def test_corrupt_entry_is_a_safe_miss_before_any_read(memory_cache, builds, plant):
    data = _data()
    plan = _warm_hit(memory_cache, data)
    key = bind_fingerprint(plan, data)
    entry = memory_cache.get(key)
    memory_cache.put(key, _planted(entry, **plant(entry.arrays)))
    builds()
    assert memo.lookup(memory_cache, key, data, plan.steps) is None
    assert builds() == 0
    assert memory_cache.stats.corrupt == 1
    assert memory_cache.get(key) is None  # dropped: the next bind re-runs cold
    healed = plan.bind(data, cache=memory_cache)
    assert healed.report.cache == "stored"
    assert result_digests(healed) == result_digests(_plan().bind(data))


def test_concurrent_first_reads_share_one_state(memory_cache, builds):
    data = _data()
    plan = _warm_hit(memory_cache, data)
    hit = plan.bind(data, cache=memory_cache)
    builds()
    builds.delay = 0.05  # hold the first build open while the other reads
    barrier = threading.Barrier(2)
    seen = []

    def first_read():
        barrier.wait()
        seen.append(hit.transformed)

    threads = [threading.Thread(target=first_read) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(seen) == 2 and seen[0] is seen[1]
    assert builds() == 1


def test_verify_on_a_hit_builds_and_verifies(memory_cache, builds):
    data = _data()
    plan = _warm_hit(memory_cache, data)
    builds()
    hit = plan.bind(data, cache=memory_cache, verify=True)
    assert hit.report.cache == "hit"
    assert hit.report.verified is True
    assert builds() == 1
