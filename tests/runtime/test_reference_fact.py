"""The reference run of numeric verification is a fact of the dataset.

``verify_numeric_equivalence`` derives the untransformed kernel's output
payload through ``KernelData.derived``, keyed by ``num_steps`` and the
resolved executor tier (backend x sanitizer).  Pinned here: one dataset
bound under the twelve plans of one ``cold_bind`` handle runs the
reference once; another ``num_steps``, backend, sanitizer setting or
payload derives its own; the stored payload is read-only and the
dataset's own payload is untouched; and a corrupted transformed result
still raises :class:`~repro.errors.ExecutorFault` on every call, with
the positions a full two-sided run reports.
"""

import numpy as np
import pytest

from repro.cachesim.machines import machine_by_name
from repro.errors import ExecutorFault
from repro.eval.compositions import COMPOSITIONS, composition_steps
from repro.kernels import generate_dataset, make_kernel_data
from repro.kernels.specs import kernel_by_name
from repro.lowering import toolchain
from repro.lowering.executor import resolve_executor_backend, sanitize_enabled
from repro.runtime import CompositionPlan, CPackStep, LexGroupStep
from repro.runtime import verify as verify_mod
from repro.runtime.executor import run_numeric
from repro.runtime.faults import CORRUPTORS
from repro.runtime.inspector import ComposedInspector
from repro.runtime.verify import (
    clear_verification_memo,
    verify_bind,
    verify_numeric_equivalence,
)

pytestmark = pytest.mark.compiled

HAVE_CC = toolchain.have_toolchain()[0]


def _data(kernel="moldyn"):
    return make_kernel_data(kernel, generate_dataset("mol1", scale=256))


def _plans(data):
    """The twelve plans ``cold_bind`` binds one handle under: every
    non-baseline composition x remap once/each."""
    machine = machine_by_name("pentium4")
    return [
        CompositionPlan(
            kernel_by_name(data.kernel_name),
            composition_steps(name, data, machine),
            name=name,
            remap=remap,
        )
        for name in COMPOSITIONS
        if name != "baseline"
        for remap in ("once", "each")
    ]


def _tier():
    return (resolve_executor_backend(None, warn=False).backend, sanitize_enabled())


def _stored(data, num_steps=2):
    """The stored reference payload (fails if it was never derived)."""
    return data.derived(
        ("reference", num_steps, _tier()),
        lambda: pytest.fail("no reference fact was derived"),
    )


@pytest.fixture(autouse=True)
def _fresh_verification_memo():
    clear_verification_memo()
    yield
    clear_verification_memo()


@pytest.fixture
def reference_runs(monkeypatch):
    """Counts the ``run_numeric`` calls whose input equals a dataset:
    its index arrays and payload, by content."""
    calls = []
    real = verify_mod.run_numeric

    def counting(data, *args, **kwargs):
        calls.append(data.copy())
        return real(data, *args, **kwargs)

    monkeypatch.setattr(verify_mod, "run_numeric", counting)

    def on(data):
        return sum(
            np.array_equal(ran.left, data.left)
            and np.array_equal(ran.right, data.right)
            and all(
                np.array_equal(ran.arrays[name], array)
                for name, array in data.arrays.items()
            )
            for ran in calls
        )

    return on


def _bind(data, num_steps=2):
    plan = CompositionPlan(kernel_by_name(data.kernel_name), [CPackStep()])
    return plan.bind(data, num_steps=num_steps, verify=True)


class TestOneReferencePerDataset:
    def test_twelve_plans_run_the_reference_once(self, reference_runs):
        data = _data()
        plans = _plans(data)
        assert len(plans) == 12
        for plan in plans:
            assert plan.bind(data, verify=True).report.verified
        assert reference_runs(data) == 1

    def test_another_num_steps_derives_another_reference(self, reference_runs):
        data = _data()
        _bind(data, num_steps=1)
        _bind(data, num_steps=2)
        _bind(data, num_steps=2)
        assert reference_runs(data) == 2

    @pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
    def test_another_backend_derives_another_reference(
        self, reference_runs, monkeypatch
    ):
        data = _data()
        for backend in ("numpy", "c", "numpy", "c"):
            monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", backend)
            clear_verification_memo()
            _bind(data)
        assert reference_runs(data) == 2

    def test_sanitizer_on_and_off_derive_their_own_reference(
        self, reference_runs, monkeypatch
    ):
        data = _data()
        for value in ("0", "1", "0", "1"):
            monkeypatch.setenv("REPRO_EXECUTOR_SANITIZE", value)
            clear_verification_memo()
            _bind(data)
        assert reference_runs(data) == 2

    def test_a_changed_payload_derives_its_own_reference(self, reference_runs):
        data = _data()
        _bind(data)
        other = data.copy()
        other.arrays["x"][0] += 1.0
        _bind(other)
        assert reference_runs(data) == 1 and reference_runs(other) == 1
        assert not np.array_equal(_stored(data)["x"], _stored(other)["x"])


class TestStoredPayload:
    def test_stored_arrays_are_read_only_and_correct(self):
        data = _data()
        _bind(data)
        stored = _stored(data)
        expected = run_numeric(data.copy(), 2).arrays
        assert stored.keys() == expected.keys()
        for name, array in stored.items():
            assert not array.flags.writeable
            assert array.tobytes() == expected[name].tobytes()
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_verifying_leaves_the_dataset_payload_unchanged(self):
        data = _data()
        before = {name: a.copy() for name, a in data.arrays.items()}
        result = _bind(data)
        verify_numeric_equivalence(data, result)
        for name, array in data.arrays.items():
            assert array.tobytes() == before[name].tobytes()

    def test_the_transformed_side_is_left_as_bound(self):
        data = _data()
        result = _bind(data)
        before = result.transformed.copy()
        verify_numeric_equivalence(data, result)
        for name, array in result.transformed.arrays.items():
            assert array.tobytes() == before.arrays[name].tobytes()
        assert result.transformed.left.tobytes() == before.left.tobytes()
        assert result.transformed.right.tobytes() == before.right.tobytes()


def _corrupt(result):
    """Clobber one entry of the transformed ``right`` with faults.py's
    corruptor, as an inspector that moved the index arrays wrongly would."""
    corrupt = CORRUPTORS["clobber-entry"].corrupt_array
    transformed = result.transformed.copy()
    transformed.right = corrupt(transformed.right, np.random.default_rng(3))
    result.transformed = transformed
    return result


def _two_sided_indices(original, result, num_steps=2):
    """The mismatching positions a full two-sided run reports: both sides
    on fresh copies, nothing remembered."""
    baseline = run_numeric(original.copy(), num_steps)
    transformed = run_numeric(result.transformed.copy(), num_steps)
    inv = result.sigma_nodes.inverse()
    for name, expected in baseline.arrays.items():
        actual = inv.apply_to_data(transformed.arrays[name])
        close = np.isclose(actual, expected, rtol=1e-9, atol=1e-12)
        if not close.all():
            return np.flatnonzero(~close)[:5].tolist()
    return []


class TestCorruptedResult:
    def test_every_call_raises_with_fresh_diagnostics(self):
        data = _data()
        result = _corrupt(_bind(data))
        expected = _two_sided_indices(data, result)
        assert expected
        # A plan no bind of ``data`` was verified under: no verdict to read.
        plan = CompositionPlan(kernel_by_name("moldyn"), [LexGroupStep()])
        for _ in range(3):
            with pytest.raises(ExecutorFault) as exc:
                verify_numeric_equivalence(data, result)
            assert exc.value.indices == expected
            with pytest.raises(ExecutorFault) as exc:
                verify_bind(plan, data, result, "bind")
            assert exc.value.indices == expected

    def test_every_bind_raises(self, monkeypatch):
        data = _data()
        real = ComposedInspector.run
        monkeypatch.setattr(
            ComposedInspector,
            "run",
            lambda self, *args, **kwargs: _corrupt(real(self, *args, **kwargs)),
        )
        plan = CompositionPlan(
            kernel_by_name("moldyn"), [CPackStep(), LexGroupStep()]
        )
        indices = []
        for _ in range(3):
            with pytest.raises(ExecutorFault) as exc:
                plan.bind(data, verify=True)
            indices.append(exc.value.__cause__.indices)
        assert indices[0] and indices == [indices[0]] * 3
