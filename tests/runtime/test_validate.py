"""Bind-time validation (repro.runtime.validate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.kernels.data import make_kernel_data
from repro.kernels.datasets import Dataset
from repro.runtime import plan_from_spec, validate
from repro.runtime.validate import (
    check_index_array,
    check_permutation,
    validate_dataset,
    validate_kernel_data,
)

from .conftest import tiny_dataset


def _clean_dataset(num_nodes=24, seed=3):
    """Random dataset with no duplicate edges or self-loops (strict-clean)."""
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in range(num_nodes) for b in range(a + 1, num_nodes)]
    chosen = rng.choice(len(pairs), size=3 * num_nodes, replace=False)
    left = np.array([pairs[c][0] for c in chosen], dtype=np.int64)
    right = np.array([pairs[c][1] for c in chosen], dtype=np.int64)
    return Dataset("clean", num_nodes, left, right)


class TestCheckIndexArray:
    def test_clean_array_passes(self):
        assert check_index_array(np.arange(5), 5, "a") == []

    def test_out_of_range_is_fatal_with_positions(self):
        arr = np.array([0, 9, 2, -1, 4])
        findings = check_index_array(arr, 5, "left")
        (f,) = findings
        assert f.severity == "fatal" and f.check == "out-of-range"
        assert f.indices == [1, 3]

    def test_positions_capped_at_five(self):
        findings = check_index_array(np.full(20, -1), 5, "left")
        assert len(findings[0].indices) == 5

    def test_non_1d_is_fatal(self):
        findings = check_index_array(np.zeros((2, 2), dtype=int), 5, "left")
        assert findings[0].check == "bad-shape"

    def test_float_dtype_error_under_strict(self):
        findings = check_index_array(np.array([0.0, 1.0]), 2, "a", "strict")
        assert findings[0].check == "dtype-mismatch"
        assert findings[0].severity == "error"

    def test_integral_float_coerced_under_permissive(self):
        findings = check_index_array(np.array([0.0, 1.0]), 2, "a", "permissive")
        assert findings[0].severity == "warning"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError):
            check_index_array(np.arange(3), 3, "a", policy="lenient")


class TestCheckPermutation:
    def test_valid_permutation(self):
        assert check_permutation(np.array([2, 0, 1]), 3, "sigma") == []

    def test_duplicate_named(self):
        findings = check_permutation(np.array([0, 1, 1]), 3, "sigma")
        assert any(f.check == "duplicate" for f in findings)

    def test_truncated_named(self):
        findings = check_permutation(np.array([0, 1]), 3, "sigma")
        assert any(f.check == "bad-length" for f in findings)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 64))
    def test_random_permutations_always_pass(self, seed, n):
        perm = np.random.default_rng(seed).permutation(n)
        assert check_permutation(perm, n, "sigma") == []

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 64))
    def test_clobbered_permutations_always_flagged(self, seed, n):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        i, j = rng.choice(n, size=2, replace=False)
        perm[i] = perm[j]
        findings = check_permutation(perm, n, "sigma")
        assert any(f.severity == "fatal" for f in findings)


class TestValidateKernelData:
    def test_clean_data_passes_strict(self):
        data = make_kernel_data("irreg", _clean_dataset())
        assert validate_kernel_data(data, policy="strict").ok

    def test_random_tiny_data_warns_but_passes_permissive(self):
        # Random endpoint sampling produces duplicate edges and self-loops.
        data = make_kernel_data("irreg", tiny_dataset())
        report = validate_kernel_data(data, policy="permissive")
        assert report.ok
        checks = {f.check for f in report.warnings}
        assert "duplicate-edges" in checks or "self-loops" in checks

    def test_strict_raises_on_warnings(self):
        data = make_kernel_data("irreg", tiny_dataset())
        report = validate_kernel_data(data, policy="strict")
        assert not report.ok
        with pytest.raises(ValidationError) as exc:
            report.raise_if_failed(stage="bind")
        assert "[stage bind]" in str(exc.value)

    def test_out_of_range_endpoint_is_fatal_everywhere(self):
        data = make_kernel_data("irreg", _clean_dataset())
        data.left[4] = data.num_nodes + 3
        for policy in ("strict", "permissive"):
            report = validate_kernel_data(data, policy=policy)
            assert not report.ok
            assert any(f.check == "out-of-range" for f in report.fatal)
            assert 4 in report.fatal[0].indices

    def test_ragged_endpoints_fatal(self):
        data = make_kernel_data("irreg", _clean_dataset())
        data.right = data.right[:-2]
        report = validate_kernel_data(data, policy="permissive")
        assert any(f.check == "ragged-endpoints" for f in report.fatal)

    def test_nonfinite_payload_warns(self):
        data = make_kernel_data("irreg", _clean_dataset())
        data.arrays["x"][7] = np.nan
        report = validate_kernel_data(data, policy="permissive")
        warning = [f for f in report.warnings if f.check == "non-finite-payload"]
        assert warning and warning[0].indices == [7]



class TestValidationIsDerivedOnce:
    """Validation reads nothing but the dataset, so a ``KernelData``
    instance is validated once per policy, however often it is bound."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        real = validate._kernel_data_findings

        def counting(data, policy):
            calls.append(policy)
            return real(data, policy)

        monkeypatch.setattr(validate, "_kernel_data_findings", counting)
        return calls

    def test_a_second_bind_does_not_revalidate(self, counted):
        data = make_kernel_data("irreg", _clean_dataset())
        plan = plan_from_spec({"kernel": "irreg", "steps": ["cpack"]})
        plan.bind(data)
        plan.bind(data)
        plan_from_spec({"kernel": "irreg", "steps": ["lexgroup"]}).bind(data)
        assert counted == ["strict"]
        validate_kernel_data(data, policy="permissive")
        validate_kernel_data(data, policy="permissive", subject="other")
        assert counted == ["strict", "permissive"]

    def test_strict_invalid_data_raises_on_every_bind(self, counted):
        data = make_kernel_data("irreg", tiny_dataset())
        plan = plan_from_spec({"kernel": "irreg", "steps": ["cpack"]})
        for _ in range(3):
            with pytest.raises(ValidationError, match="strict validation"):
                plan.bind(data)
        assert counted == ["strict"]

    def test_a_mutated_report_does_not_change_the_next(self):
        data = make_kernel_data("irreg", tiny_dataset())
        first = validate_kernel_data(data, policy="permissive")
        expected = [str(f) for f in first.findings]
        first.findings[0].indices.append(-1)
        first.findings[0].message = "scribbled"
        first.findings.clear()
        again = validate_kernel_data(data, policy="permissive")
        assert [str(f) for f in again.findings] == expected

    def test_a_reassigned_array_is_validated_afresh(self):
        data = make_kernel_data("irreg", _clean_dataset())
        assert validate_kernel_data(data).ok
        right = data.right.copy()
        right[2] = data.num_nodes
        data.right = right
        report = validate_kernel_data(data)
        assert [f.check for f in report.fatal] == ["out-of-range"]


class TestValidateDataset:
    def test_generated_datasets_are_strict_clean(self):
        from repro.kernels.datasets import generate_dataset

        report = validate_dataset(generate_dataset("foil", scale=256))
        assert report.ok

    def test_coords_length_checked(self):
        ds = _clean_dataset()
        bad = Dataset(ds.name, ds.num_nodes, ds.left, ds.right,
                      coords=np.zeros((3, 2)))
        report = validate_dataset(bad)
        assert any(f.check == "bad-length" for f in report.fatal)

    def test_empty_dataset_is_consistent_warning(self):
        empty = Dataset("empty", 0, np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.int64))
        report = validate_dataset(empty, policy="permissive")
        assert report.ok and report.warnings
