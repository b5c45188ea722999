"""Content fingerprints: stability, sensitivity, and the code salt."""

import numpy as np
import pytest

from repro.kernels import generate_dataset, make_kernel_data
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

#: ``dataset_fingerprint`` of the end-to-end benchmark's bind inputs
#: (scale 12), recorded when ``KernelData`` still carried its own copies
#: of the loop shape and record bytes.
PINNED_FINGERPRINTS = {
    ("moldyn", "mol1"):
        "dd3d9bba446b4b30d16963f9be88a16c55a9dfdc62bfe090820ebdde045c68c6",
    ("moldyn", "foil"):
        "9a5eed9624010d28c30139a36f4f4a44d3bfe9755f6d9536d7751ee43e864357",
    ("nbf", "mol1"):
        "0d59993df1ec8008502bd5c32d4a50ce5705cb72e26dff7eb5113ffbb1d55a64",
    ("nbf", "foil"):
        "7fc755efe96bf631a45086a936034a01b66e77811bf6df1ce5cca4f12d03787b",
    ("irreg", "mol1"):
        "3d1fefd89e1ccea6177d6aaf8fb37d7c553cd0613e49523551472c8f84b171b0",
    ("irreg", "foil"):
        "1709f19d3ed1bcf7222afe5acb7936316561abf4c973df7d059ac158173130ac",
}


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

    def test_kernel_name_matters(self):
        a = tiny_data("nbf", seed=3)
        b = tiny_data("irreg", seed=3)
        assert fp.dataset_fingerprint(a) != fp.dataset_fingerprint(b)

    @pytest.mark.parametrize("kernel,dataset", sorted(PINNED_FINGERPRINTS))
    def test_bind_inputs_keep_their_digests(self, kernel, dataset):
        """The loop shape and record bytes a digest hashes are read from
        the kernel spec; they hash what the per-instance copies did."""
        data = make_kernel_data(kernel, generate_dataset(dataset, scale=12))
        assert fp.dataset_fingerprint(data) == PINNED_FINGERPRINTS[kernel, dataset]


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

    def test_plan_fingerprint_is_hashed_once_per_salt(self, monkeypatch):
        plan = CompositionPlan(kernel_by_name("moldyn"), [CPackStep()])
        digests = []
        original = fp.plan_digest

        def counting(plan, salt):
            digests.append(salt)
            return original(plan, salt)

        monkeypatch.setattr(fp, "plan_digest", counting)
        first = fp.plan_fingerprint(plan)
        data = tiny_data(seed=5)
        fp.bind_fingerprint(plan, data)
        assert fp.plan_fingerprint(plan) == first
        assert len(digests) == 1
        monkeypatch.setattr(fp, "SALT_EXTRA", "simulated-code-change")
        assert fp.plan_fingerprint(plan) != first
        assert fp.plan_fingerprint(plan) != first
        assert len(digests) == 2
        monkeypatch.setattr(fp, "SALT_EXTRA", "")
        assert fp.plan_fingerprint(plan) == first
        assert len(digests) == 3

    def test_a_request_hashes_its_plan_once(self, monkeypatch):
        """The flight key and the bind key share the parsed plan's
        fingerprint: one hash of the steps per served request."""
        from repro.plancache import PlanCache
        from repro.service import PlanService, ServiceConfig

        from tests.service.conftest import make_request

        digests = []
        original = fp.plan_digest
        monkeypatch.setattr(
            fp, "plan_digest",
            lambda plan, salt: digests.append(salt) or original(plan, salt),
        )
        cache = PlanCache(use_disk=False)
        with PlanService(ServiceConfig(workers=1), cache=cache) as service:
            assert service.bind(make_request()).cache == "stored"
            digests.clear()
            for count in range(1, 4):
                assert service.bind(make_request()).cache == "hit"
                assert len(digests) == count

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
        """The salt names the tier that runs: the default, ``numpy`` and
        its ``library`` alias are one tier, ``c`` another."""
        monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
        default = fp.code_version_salt()
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "numpy")
        numpy_salt = fp.code_version_salt()
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "library")
        alias_salt = fp.code_version_salt()
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "c")
        c_salt = fp.code_version_salt()
        assert default == numpy_salt == alias_salt
        assert c_salt != numpy_salt
        monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
        assert fp.code_version_salt() == default

    def test_a_backend_flip_moves_a_plans_fingerprint(self, monkeypatch):
        """The plan memoises its fingerprint per salt, so flipping the
        backend on the same plan object still moves its key."""
        from repro.lowering import toolchain

        if not toolchain.have_toolchain()[0]:
            pytest.skip("c degrades to the default tier without a toolchain")
        plan = CompositionPlan(kernel_by_name("moldyn"), [CPackStep()])
        monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
        numpy_key = fp.plan_fingerprint(plan)
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "c")
        c_key = fp.plan_fingerprint(plan)
        assert c_key != numpy_key
        assert c_key == fp.plan_fingerprint(
            CompositionPlan(kernel_by_name("moldyn"), [CPackStep()])
        )
        monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
        assert fp.plan_fingerprint(plan) == numpy_key

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

        from repro.lowering import toolchain

        if not toolchain.have_toolchain()[0]:
            pytest.skip("c degrades to the default tier without a toolchain")
        cache = PlanCache(directory=tmp_path / "cache")
        plan = CompositionPlan(kernel_by_name("moldyn"), [CPackStep()])
        monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
        cold = plan.bind(moldyn_data, cache=cache)
        assert cold.report.cache == "stored"
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "c")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BackendFallbackWarning)
            other = plan.bind(moldyn_data, cache=cache)
        assert other.report.cache == "stored"  # a fresh key, not a hit
        monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
        warm = plan.bind(moldyn_data, cache=cache)
        assert warm.report.cache == "hit"
