"""Content fingerprints: stability, sensitivity, and the code salt."""

import numpy as np
import pytest

from repro.kernels.specs import kernel_by_name
from repro.plancache import fingerprint as fp
from repro.runtime import (
    CompositionPlan,
    CPackStep,
    FullSparseTilingStep,
    GPartStep,
    LexGroupStep,
)

from tests.plancache.conftest import tiny_data

pytestmark = pytest.mark.plancache


class TestDatasetFingerprint:
    def test_identical_content_identical_digest(self):
        a = tiny_data(seed=3)
        b = tiny_data(seed=3)
        assert a is not b
        assert fp.dataset_fingerprint(a) == fp.dataset_fingerprint(b)

    def test_mutated_index_array_changes_digest(self):
        a = tiny_data(seed=3)
        b = tiny_data(seed=3)
        b.left[0] = (b.left[0] + 1) % b.num_nodes
        assert fp.dataset_fingerprint(a) != fp.dataset_fingerprint(b)

    def test_dtype_matters(self):
        a = tiny_data(seed=3)
        b = tiny_data(seed=3)
        b.left = b.left.astype(np.int32)
        assert fp.dataset_fingerprint(a) != fp.dataset_fingerprint(b)

    def test_payload_values_excluded_by_default(self):
        a = tiny_data(seed=3)
        b = tiny_data(seed=3)
        next(iter(b.arrays.values()))[0] += 1.0
        assert fp.dataset_fingerprint(a) == fp.dataset_fingerprint(b)
        assert fp.dataset_fingerprint(
            a, include_payload=True
        ) != fp.dataset_fingerprint(b, include_payload=True)

    def test_kernel_name_matters(self):
        a = tiny_data("nbf", seed=3)
        b = tiny_data("irreg", seed=3)
        assert fp.dataset_fingerprint(a) != fp.dataset_fingerprint(b)


class TestStepAndPlanFingerprint:
    def test_step_parameters_matter(self):
        assert fp.step_fingerprint(GPartStep(128)) == fp.step_fingerprint(
            GPartStep(128)
        )
        assert fp.step_fingerprint(GPartStep(128)) != fp.step_fingerprint(
            GPartStep(64)
        )

    def test_step_class_matters(self):
        assert fp.step_fingerprint(CPackStep()) != fp.step_fingerprint(
            LexGroupStep()
        )

    def test_policies_matter(self):
        steps = [CPackStep(), LexGroupStep()]
        base = fp.inspector_fingerprint(steps, "once", "raise")
        assert base == fp.inspector_fingerprint(steps, "once", "raise")
        assert base != fp.inspector_fingerprint(steps, "each", "raise")
        assert base != fp.inspector_fingerprint(steps, "once", "skip")

    def test_plan_fingerprint_covers_kernel(self):
        steps = [CPackStep(), LexGroupStep(), FullSparseTilingStep(8)]
        a = CompositionPlan(kernel_by_name("moldyn"), steps)
        b = CompositionPlan(kernel_by_name("irreg"), steps)
        assert fp.plan_fingerprint(a) != fp.plan_fingerprint(b)

    def test_bind_fingerprint_combines(self):
        plan = CompositionPlan(kernel_by_name("moldyn"), [CPackStep()])
        data = tiny_data(seed=5)
        key = fp.bind_fingerprint(plan, data)
        assert key == fp.bind_fingerprint(plan, data)
        other = tiny_data(seed=6)
        assert key != fp.bind_fingerprint(plan, other)


class TestCodeSalt:
    def test_salt_is_stable_within_process(self):
        assert fp.code_version_salt() == fp.code_version_salt()

    def test_salt_extra_bumps_every_key(self, monkeypatch):
        steps = [CPackStep()]
        before = fp.inspector_fingerprint(steps, "once", "raise")
        monkeypatch.setattr(fp, "SALT_EXTRA", "simulated-code-change")
        after = fp.inspector_fingerprint(steps, "once", "raise")
        assert before != after

    def test_combine_is_order_sensitive(self):
        assert fp.combine("a", "b") != fp.combine("b", "a")


class TestExecutorBackendSalt:
    """A cached plan produced under one executor backend must never
    rehydrate into a bind running a different backend."""

    def test_salt_tracks_the_active_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
        library = fp.code_version_salt()
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "numpy")
        numpy_salt = fp.code_version_salt()
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "c")
        c_salt = fp.code_version_salt()
        assert len({library, numpy_salt, c_salt}) == 3
        monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
        assert fp.code_version_salt() == library

    def test_c_salt_includes_the_toolchain_fingerprint(self, monkeypatch):
        from repro.lowering import toolchain

        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "c")
        with_cc = fp.code_version_salt()
        monkeypatch.setattr(
            toolchain, "toolchain_fingerprint", lambda: "other-compiler"
        )
        assert fp.code_version_salt() != with_cc

    def test_cross_backend_bind_is_a_miss_not_a_hit(
        self, monkeypatch, tmp_path, moldyn_data
    ):
        """Regression: flipping REPRO_EXECUTOR_BACKEND between binds must
        cold-miss (different key), never rehydrate the other backend's
        cached plan."""
        from repro.backends import BackendFallbackWarning
        import warnings

        from repro.plancache import PlanCache

        cache = PlanCache(directory=tmp_path / "cache")
        plan = CompositionPlan(kernel_by_name("moldyn"), [CPackStep()])
        monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
        cold = plan.bind(moldyn_data, cache=cache)
        assert cold.report.cache == "stored"
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "numpy")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BackendFallbackWarning)
            other = plan.bind(moldyn_data, cache=cache)
        assert other.report.cache == "stored"  # a fresh key, not a hit
        monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
        warm = plan.bind(moldyn_data, cache=cache)
        assert warm.report.cache == "hit"


class TestSchedulerSalt:
    """The tile scheduler is not in the executor-backend salt: wave and
    dynamic binds share one artifact and ``REPRO_EXECUTOR_SCHEDULER``
    only picks a run-time driver over it, so flipping it is a hit."""

    def test_salt_ignores_the_active_scheduler(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR_SCHEDULER", raising=False)
        wave = fp.code_version_salt()
        monkeypatch.setenv("REPRO_EXECUTOR_SCHEDULER", "dynamic")
        assert fp.code_version_salt() == wave

    def test_scheduler_and_backend_salts_compose(self, monkeypatch):
        """The backend still separates salts; the scheduler adds nothing."""
        monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_EXECUTOR_SCHEDULER", raising=False)
        salts = set()
        for backend in ("numpy", "c"):
            monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", backend)
            for scheduler in ("wave", "dynamic"):
                monkeypatch.setenv("REPRO_EXECUTOR_SCHEDULER", scheduler)
                salts.add(fp.code_version_salt())
        assert len(salts) == 2

    def test_cross_scheduler_bind_is_a_bit_identical_hit(
        self, monkeypatch, tmp_path, moldyn_data
    ):
        """Flipping REPRO_EXECUTOR_SCHEDULER between binds rehydrates the
        cached plan (it was a forced miss while the two schedulers were
        two builds) — and what it rehydrates is bit-identical."""
        from repro.plancache import PlanCache

        cache = PlanCache(directory=tmp_path / "cache")
        plan = CompositionPlan(kernel_by_name("moldyn"), [CPackStep()])
        monkeypatch.delenv("REPRO_EXECUTOR_SCHEDULER", raising=False)
        cold = plan.bind(moldyn_data, cache=cache)
        assert cold.report.cache == "stored"
        monkeypatch.setenv("REPRO_EXECUTOR_SCHEDULER", "dynamic")
        other = plan.bind(moldyn_data, cache=cache)
        assert other.report.cache == "hit"
        for name, ref in cold.transformed.arrays.items():
            assert other.transformed.arrays[name].tobytes() == ref.tobytes()
        assert other.transformed.left.tobytes() == cold.transformed.left.tobytes()
        assert (
            other.transformed.right.tobytes() == cold.transformed.right.tobytes()
        )
