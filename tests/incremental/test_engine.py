"""Delta-bind engine behavior: counted fallbacks, epoch-chain links, the
hit path, mandatory re-verification, and mid-delta failure recovery."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.incremental import DatasetDelta
from repro.incremental.rules import UnsupportedDelta
from repro.kernels.specs import kernel_by_name
from repro.plancache import PlanCache
from repro.plancache.fingerprint import bind_fingerprint
from repro.runtime import CompositionPlan
from repro.runtime.inspector import (
    CPackStep,
    GPartStep,
    LexGroupStep,
)

from tests.incremental.conftest import (
    assert_bit_identical,
    small_delta,
    tiny_data,
)

pytestmark = pytest.mark.streaming


def _plan(steps=None, name="cpack+lg", **kwargs):
    steps = steps if steps is not None else [CPackStep(), LexGroupStep()]
    return CompositionPlan(kernel_by_name("moldyn"), steps, name=name, **kwargs)


def _cache():
    return PlanCache(use_disk=False)


class TestFallbacks:
    def test_requires_cache(self):
        data = tiny_data()
        with pytest.raises(ValidationError, match="requires a plan cache"):
            _plan().rebind(data, small_delta(data), cache=None)

    def test_unpatchable_stage_falls_back_counted(self):
        data = tiny_data()
        plan = _plan([GPartStep(4), LexGroupStep()], name="gpart+lg")
        cache = _cache()
        plan.bind(data, cache=cache)
        delta = small_delta(data, seed=21)
        result = plan.rebind(data, delta, cache=cache)
        assert result.delta_info["mode"] == "fallback"
        assert "gpart" in result.delta_info["reason"]
        assert cache.stats.delta_fallbacks == 1
        assert cache.stats.delta_patched == 0
        cold = _plan(
            [GPartStep(4), LexGroupStep()], name="gpart+lg"
        ).bind(delta.apply(data), cache=_cache())
        assert_bit_identical(result, cold)

    def test_over_threshold_drift_falls_back(self):
        data = tiny_data()
        plan = _plan()
        cache = _cache()
        plan.bind(data, cache=cache)
        # > 10% of the 80 interactions churned: past every threshold.
        delta = small_delta(data, removed=10, added=10, seed=22)
        result = plan.rebind(data, delta, cache=cache)
        assert result.delta_info["mode"] == "fallback"
        assert "exceeds threshold" in result.delta_info["reason"]
        assert cache.stats.delta_fallbacks == 1

    def test_missing_parent_falls_back(self):
        data = tiny_data()
        plan = _plan()
        cache = _cache()
        result = plan.rebind(data, small_delta(data, seed=23), cache=cache)
        assert result.delta_info["mode"] == "fallback"
        assert "parent bind is not cached" in result.delta_info["reason"]

    def test_permissive_policy_falls_back(self):
        data = tiny_data()
        plan = _plan(on_stage_failure="identity")
        cache = _cache()
        plan.bind(data, cache=cache)
        result = plan.rebind(data, small_delta(data, seed=24), cache=cache)
        assert result.delta_info["mode"] == "fallback"
        assert "permissive" in result.delta_info["reason"]

    def test_verify_failure_degrades_counted(self, monkeypatch):
        import repro.runtime.verify as verify_mod

        def always_fails(*args, **kwargs):
            raise AssertionError("injected verification mismatch")

        monkeypatch.setattr(verify_mod, "verify_numeric_equivalence", always_fails)
        data = tiny_data()
        plan = _plan()
        cache = _cache()
        plan.bind(data, cache=cache)
        delta = small_delta(data, seed=25)
        result = plan.rebind(data, delta, cache=cache)
        assert result.delta_info["mode"] == "fallback"
        assert "failed verification" in result.delta_info["reason"]
        assert cache.stats.delta_verify_failures == 1
        assert cache.stats.delta_fallbacks == 1
        cold = _plan().bind(delta.apply(data), cache=_cache())
        assert_bit_identical(result, cold)

    def test_fault_wrapped_stage_is_never_patched(self):
        """A fault wrapper stands in for the stage it wraps but is not that
        step: it carries no delta rule, so the re-bind falls back even for
        a benign corruptor on an otherwise patchable composition."""
        from repro.runtime.faults import inject
        from repro.runtime.inspector import FullSparseTilingStep

        steps = inject(
            [CPackStep(), LexGroupStep(), FullSparseTilingStep(8)],
            stage=0,
            fault="swap-entries",
        )
        assert steps[0].delta is None
        data = tiny_data()
        plan = _plan(steps, name="cpack+lg+fst")
        cache = _cache()
        plan.bind(data, cache=cache)
        result = plan.rebind(data, small_delta(data, seed=27), cache=cache)
        assert result.delta_info["mode"] == "fallback"
        assert "stage 0 (cpack)" in result.delta_info["reason"]
        assert cache.stats.delta_patched == 0

    def test_child_data_shape_mismatch_rejected(self):
        data = tiny_data()
        plan = _plan()
        cache = _cache()
        plan.bind(data, cache=cache)
        # Asymmetric churn so the child's row count provably differs.
        delta = small_delta(data, removed=3, added=1, seed=26)
        with pytest.raises(ValidationError, match="does not match"):
            plan.rebind(data, delta, cache=cache, child_data=data)


class TestEpochChain:
    def test_links_walk_back_to_cold_root(self):
        plan = _plan()
        cache = _cache()
        data = tiny_data()
        keys = [bind_fingerprint(plan, data)]
        plan.bind(data, cache=cache)
        for seed in (31, 32, 33):
            delta = small_delta(data, seed=seed)
            result = plan.rebind(data, delta, cache=cache)
            assert result.delta_info["mode"] == "patched", result.delta_info
            data = delta.apply(data)
            keys.append(bind_fingerprint(plan, data))
            assert result.delta_info["epoch"] == len(keys) - 1
        # Walk the chain backwards through stored metadata.
        for epoch in range(len(keys) - 1, 0, -1):
            entry = cache.get(keys[epoch])
            assert entry is not None
            assert entry.meta["epoch"] == epoch
            assert entry.meta["parent_key"] == keys[epoch - 1]
            assert entry.meta["delta_mode"] == "patched"
        root = cache.get(keys[0])
        assert root is not None and "parent_key" not in root.meta
        assert cache.stats.delta_patched == 3

    def test_fallback_epoch_joins_chain(self):
        plan = _plan([GPartStep(4), LexGroupStep()], name="gpart+lg")
        cache = _cache()
        data = tiny_data()
        parent_key = bind_fingerprint(plan, data)
        plan.bind(data, cache=cache)
        delta = small_delta(data, seed=34)
        result = plan.rebind(data, delta, cache=cache)
        assert result.delta_info["mode"] == "fallback"
        entry = cache.get(bind_fingerprint(plan, delta.apply(data)))
        assert entry is not None
        assert entry.meta["parent_key"] == parent_key
        assert entry.meta["epoch"] == 1
        assert entry.meta["delta_mode"] == "fallback"

    def test_repeated_delta_is_a_hit(self):
        plan = _plan()
        cache = _cache()
        data = tiny_data()
        plan.bind(data, cache=cache)
        delta = small_delta(data, seed=35)
        first = plan.rebind(data, delta, cache=cache)
        assert first.delta_info["mode"] == "patched"
        second = plan.rebind(data, delta, cache=cache)
        assert second.delta_info["mode"] == "hit"
        assert second.delta_info["epoch"] == 1
        assert_bit_identical(second, first)

    def test_payload_only_delta_hits_parent_entry(self):
        """Payload motion does not change the structural fingerprint, so
        the parent's cached sigma re-applies to the live payload."""
        plan = _plan()
        cache = _cache()
        data = tiny_data()
        plan.bind(data, cache=cache)
        delta = small_delta(data, removed=0, added=0, moved=5, seed=36)
        result = plan.rebind(data, delta, cache=cache)
        assert result.delta_info["mode"] == "hit"
        assert result.delta_info["epoch"] == 0
        cold = _plan().bind(delta.apply(data), cache=_cache())
        assert_bit_identical(result, cold)

    def test_patched_bind_is_verified_and_cold_identical(self):
        plan = _plan()
        cache = _cache()
        data = tiny_data()
        plan.bind(data, cache=cache)
        delta = small_delta(data, seed=37)
        result = plan.rebind(data, delta, cache=cache)
        assert result.delta_info["mode"] == "patched"
        assert result.report.verified is True
        assert result.total_touches > 0  # touch accounting rode along


    def test_patched_bind_is_labelled_delta(self):
        plan = _plan()
        cache = _cache()
        data = tiny_data()
        plan.bind(data, cache=cache)
        result = plan.rebind(data, small_delta(data, seed=38), cache=cache)
        assert result.delta_info["mode"] == "patched"
        assert result.report.cache == "delta"

    def test_cold_parent_aux_is_charged_to_delta_aux(self):
        """Deriving the parent's aux when it is not cached costs
        ``2 * num_inter + num_nodes`` touches, and they reach
        ``overhead["delta_aux"]`` on top of advancing it."""
        from repro.incremental import EpochAux

        data = tiny_data()
        delta = small_delta(data, seed=39)
        charged = []
        for warm in (False, True):
            plan = _plan()
            cache = _cache()
            plan.bind(data, cache=cache)
            if warm:
                cache.put_aux(
                    bind_fingerprint(plan, data), EpochAux.from_data(data)
                )
            result = plan.rebind(data, delta, cache=cache)
            assert result.delta_info["mode"] == "patched"
            charged.append(result.overhead["delta_aux"])
        cold, warm = charged
        assert cold - warm == 2 * data.num_inter + data.num_nodes


def _mol1_stream():
    """moldyn mol1@16 under ``cpack+fst`` and one 2% drift epoch."""
    from repro.cachesim.machines import machine_by_name
    from repro.eval.compositions import composition_steps
    from repro.kernels import generate_dataset, make_kernel_data
    from repro.runtime.faults import make_drift_delta

    data = make_kernel_data("moldyn", generate_dataset("mol1", scale=16))
    steps = composition_steps("cpack+fst", data, machine_by_name("pentium4"))
    plan = _plan(steps, name="cpack+fst")
    delta = make_drift_delta(data, edge_rate=0.02, move_rate=0.01, seed=5)
    return plan, data, delta, delta.apply(data)


@pytest.fixture
def verifier_runs(monkeypatch):
    """Counts the numeric verifier's runs."""
    import repro.runtime.verify as verify_mod

    runs = []
    real = verify_mod.verify_numeric_equivalence

    def counting(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify_mod, "verify_numeric_equivalence", counting)
    return runs


class TestVerdict:
    def test_a_cold_verdict_does_not_answer_a_patch(self, monkeypatch):
        """A patch that moves 50 entries of ``x`` fails its mandatory
        re-verification even when a cold bind of the same child, through
        another cache, already left a verdict on the child."""
        from repro.runtime.inspector import ComposedInspector

        plan, data, delta, child = _mol1_stream()
        real = ComposedInspector.run_stages

        def planted(self, *args, **kwargs):
            result = real(self, *args, **kwargs)
            transformed = result.transformed.copy()
            transformed.arrays["x"][:50] += 1.0
            result.transformed = transformed
            return result

        monkeypatch.setattr(ComposedInspector, "run_stages", planted)
        cache = _cache()
        plan.bind(data, cache=cache)
        assert plan.bind(child, cache=_cache(), verify=True).report.verified
        result = plan.rebind(data, delta, cache=cache, child_data=child)
        assert result.delta_info["mode"] == "fallback"
        assert "failed verification" in result.delta_info["reason"]
        assert cache.stats.delta_verify_failures == 1
        assert cache.stats.verify_memo_hits == 0
        assert_bit_identical(result, plan.bind(child.copy()))

    def test_a_repeated_patch_reuses_its_verdict(self, verifier_runs):
        """The same child rebound from the same parent with the same
        delta is the same patch: its verdict is read, not re-run."""
        plan, data, delta, child = _mol1_stream()
        cache = _cache()
        plan.bind(data, cache=cache)
        first = plan.rebind(data, delta, cache=cache, child_data=child)
        cache.discard(bind_fingerprint(plan, child))
        second = plan.rebind(data, delta, cache=cache, child_data=child)
        for result in (first, second):
            assert result.delta_info["mode"] == "patched"
            assert result.report.verified is True
        assert len(verifier_runs) == 1
        assert cache.stats.verify_memo_hits == 1
        assert_bit_identical(second, first)


class TestMidDeltaFailure:
    def test_snapshot_restore_roundtrip_mid_delta(self, monkeypatch):
        """A stage patch that fails mid-flight can roll the inspector
        state back to its snapshot; the engine then falls back to a full
        re-bind whose output is still bit-identical to cold."""
        observed = {}

        def flaky_patch(ctx, state, step, index):
            snap = state.snapshot()
            before = {
                "left": state.data.left.tobytes(),
                "right": state.data.right.tobytes(),
                "sigma": state.sigma_total.array.tobytes(),
                "overhead": dict(state.overhead),
                "stage_functions": set(state.stage_functions),
            }
            # Partial progress: a real reordering lands, then the patch
            # discovers it cannot finish.
            CPackStep.delta.patch(ctx, state, step_cpack, 0)
            assert state.data.left.tobytes() != before["left"] or (
                state.sigma_total.array.tobytes() != before["sigma"]
            )
            state.restore(snap)
            after = {
                "left": state.data.left.tobytes(),
                "right": state.data.right.tobytes(),
                "sigma": state.sigma_total.array.tobytes(),
                "overhead": dict(state.overhead),
                "stage_functions": set(state.stage_functions),
            }
            observed["roundtrip"] = before == after
            raise UnsupportedDelta("injected mid-delta failure", stage="lg")

        step_cpack = CPackStep()
        monkeypatch.setattr(
            LexGroupStep,
            "delta",
            dataclasses.replace(LexGroupStep.delta, patch=flaky_patch),
        )
        plan = _plan()
        cache = _cache()
        data = tiny_data()
        plan.bind(data, cache=cache)
        delta = small_delta(data, seed=41)
        result = plan.rebind(data, delta, cache=cache)
        assert observed["roundtrip"] is True
        assert result.delta_info["mode"] == "fallback"
        assert "injected mid-delta failure" in result.delta_info["reason"]
        assert cache.stats.delta_fallbacks == 1
        cold = _plan().bind(delta.apply(data), cache=_cache())
        assert_bit_identical(result, cold)

    def test_snapshot_restore_preserves_tiling(self):
        """Direct InspectorState round-trip including the tiling slot."""
        from repro.runtime.inspector import InspectorState
        from repro.transforms.base import identity_reordering
        from repro.transforms.fst import TilingFunction

        data = tiny_data()
        state = InspectorState(
            data=data.copy(),
            remap="once",
            sigma_total=identity_reordering(data.num_nodes, "sigma"),
        )
        state.tiling = TilingFunction(
            [np.zeros(size, dtype=np.int64) for size in data.loop_sizes()],
            1,
        )
        snap = state.snapshot()
        rng = np.random.default_rng(0)
        perm = rng.permutation(data.num_nodes).astype(np.int64)
        from repro.transforms.base import ReorderingFunction

        state.apply_data_reordering(
            ReorderingFunction("test", perm), "test-stage"
        )
        state.tiling.tiles[0][:] = 7
        state.restore(snap)
        assert state.data.left.tobytes() == data.left.tobytes()
        assert state.data.right.tobytes() == data.right.tobytes()
        assert np.array_equal(
            state.sigma_total.array, np.arange(data.num_nodes)
        )
        assert int(state.tiling.tiles[0].max()) == 0
        assert state.overhead == {}
