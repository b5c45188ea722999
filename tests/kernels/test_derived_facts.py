"""``KernelData.derived``: one memo of the facts a dataset instance has.

Pinned here: a fact is derived once per instance and freezes the arrays
it read; an in-place write raises instead of leaving a stale fact (the
plan cache used to answer a stale ``hit`` after ``data.left[0] = ...``);
binding a new array object re-derives; ``copy()``, pickling and every
other constructor start writable and without facts; and every executor
tier refuses a frozen operand with one typed error.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.kernels import generate_dataset, make_kernel_data
from repro.lowering import toolchain
from repro.lowering.executor import clear_executor_memo, compile_executor
from repro.plancache import PlanCache, dataset_fingerprint
from repro.plancache.fingerprint import payload_digests
from repro.runtime import plan_from_spec, run_numeric, validate_kernel_data
from repro.transforms.tile_schedule import trivial_schedule

SPEC = {"kernel": "moldyn", "name": "cf", "steps": ["cpack", "fst"]}

#: ``library`` is the keepalive alias of ``numpy`` that the frozen
#: end-to-end harness still binds: a tier here until the alias goes.
TIERS = ("library", "numpy", "c") if toolchain.have_toolchain()[0] else (
    "library", "numpy"
)


def _data():
    return make_kernel_data("moldyn", generate_dataset("mol1", scale=256))


def _arrays(data):
    return [data.left, data.right, *data.arrays.values()]


class TestMemo:
    def test_a_fact_is_computed_once(self):
        data = _data()
        calls = []
        for _ in range(3):
            fact = data.derived("answer", lambda: calls.append(1) or 42)
        assert fact == 42 and len(calls) == 1

    def test_a_fresh_instance_is_writable_until_a_fact_exists(self):
        data = _data()
        assert all(a.flags.writeable for a in _arrays(data))
        dataset_fingerprint(data)
        assert not any(a.flags.writeable for a in _arrays(data))
        with pytest.raises(ValueError, match="read-only"):
            data.arrays["x"][0] = 1.0

    def test_reassigning_left_re_derives_fingerprint_and_verdict(self):
        data = _data()
        before = dataset_fingerprint(data)
        assert validate_kernel_data(data).ok
        left = data.left.copy()
        left[0] = data.right[0]  # a self-loop: strict-invalid
        data.left = left
        assert dataset_fingerprint(data) != before
        assert not validate_kernel_data(data).ok
        assert not data.left.flags.writeable

    def test_a_changed_payload_dict_re_derives(self):
        data = _data()

        def digests():
            return data.derived("payload", lambda: payload_digests(data.arrays))

        before = digests()
        data.arrays = {name: v + 1.0 for name, v in data.arrays.items()}
        assert digests() != before
        after = digests()
        data.arrays["x"] = data.arrays["x"] * 2.0
        assert digests() != after
        assert not data.arrays["x"].flags.writeable

    def test_copy_is_writable_and_has_no_facts(self):
        data = _data()
        dataset_fingerprint(data)
        twin = data.copy()
        assert all(a.flags.writeable for a in _arrays(twin))
        assert twin._facts == {}
        twin.left[0] = twin.right[5]  # does not touch the original
        assert dataset_fingerprint(twin) != dataset_fingerprint(data)

    def test_facts_do_not_travel_through_pickle(self):
        data = _data()
        digest = dataset_fingerprint(data)
        thawed = pickle.loads(pickle.dumps(data))
        assert thawed._facts == {}
        assert all(a.flags.writeable for a in _arrays(thawed))
        assert dataset_fingerprint(thawed) == digest

    def test_concurrent_first_derivations_agree(self):
        """Flights over one served handle derive its facts at once: every
        thread must get the one digest and verdict, and the arrays end
        frozen."""
        data = _data()
        expected = (dataset_fingerprint(data.copy()), True)
        results = []

        def derive():
            for _ in range(20):
                results.append(
                    (dataset_fingerprint(data), validate_kernel_data(data).ok)
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=derive) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 160
        assert not any(a.flags.writeable for a in _arrays(data))


class TestBind:
    def test_an_in_place_write_after_a_cached_bind_raises(self, tmp_path):
        """The stale-hit scenario: before the memo froze the arrays, the
        write went through and the next bind answered a ``hit`` for the
        old content, with ``transformed`` unlike a fresh cold bind."""
        data = _data()
        plan = plan_from_spec(SPEC)
        cache = PlanCache(directory=tmp_path / "cache")
        assert plan.bind(data, cache=cache).report.cache == "stored"
        with pytest.raises(ValueError, match="read-only"):
            data.left[0] = data.right[5]
        again = plan.bind(data, cache=cache)
        cold = plan.bind(data.copy())
        assert again.report.cache == "hit"
        assert np.array_equal(again.transformed.left, cold.transformed.left)

    def test_a_bound_result_stays_writable(self):
        """Executors run ``transformed`` in place: no fact is derived on it."""
        result = plan_from_spec(SPEC).bind(_data())
        assert all(a.flags.writeable for a in _arrays(result.transformed))
        run_numeric(result.transformed, num_steps=1)


@pytest.mark.parametrize("backend", TIERS)
@pytest.mark.parametrize("tiled", [False, True])
def test_every_tier_refuses_a_frozen_operand(backend, tiled, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_PLANCACHE_DIR", str(tmp_path / "cache"))
    clear_executor_memo()
    data = _data()
    validate_kernel_data(data)
    before = {name: values.copy() for name, values in data.arrays.items()}
    bound = compile_executor("moldyn", backend=backend, tiled=tiled)
    with pytest.raises(ValidationError, match="'x' is read-only"):
        if tiled:
            schedule = trivial_schedule(tuple(data.loop_sizes()))
            bound.run(data.arrays, data.left, data.right, schedule)
        else:
            bound.run(data.arrays, data.left, data.right)
    for name, values in before.items():
        assert np.array_equal(data.arrays[name], values)
    clear_executor_memo()
