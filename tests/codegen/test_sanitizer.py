"""The sanitizer fallback: guarded executors are bit-identical on valid
data and convert every index corruption into a typed trap.

Two contracts, both load-bearing for the verifier's assumed facts:

* on valid data the guard prologue is *observation only* — sanitized
  NumPy and C executors reproduce the unguarded build bit for bit
  (Hypothesis property over random datasets);
* every ``faults.py`` index-array corruptor either trips a typed
  :class:`~repro.errors.ExecutorBoundsError` *before any data mutation*
  (out-of-range, dropped, truncated entries) or is legal-but-weird
  (swaps, in-range clobbers) and must execute memory-safely with
  well-defined output.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ExecutorBoundsError
from repro.kernels import generate_dataset, make_kernel_data
from repro.kernels.data import make_kernel_data as _mk
from repro.kernels.datasets import Dataset
from repro.lowering import toolchain
from repro.lowering.executor import clear_executor_memo, compile_executor
from repro.runtime.executor import run_numeric, run_numeric_wavefront
from repro.runtime.faults import CORRUPTORS

pytestmark = pytest.mark.compiled

HAVE_CC = toolchain.have_toolchain()[0]
COMPILED_BACKENDS = ("numpy", "c") if HAVE_CC else ("numpy",)

KERNELS = ("moldyn", "nbf", "irreg")

#: Index-array corruptors and whether the sanitizer must trap them on the
#: shapes used below (num_nodes=16, num_inter=32: an out-of-range write
#: lands at 39, a dropped slot at -1, truncation desyncs left/right).
INDEX_FAULTS = {
    "swap-entries": "benign",
    "clobber-entry": "benign",
    "truncate-array": "trap",
    "drop-sigma-entry": "trap",
    "out-of-range-entry": "trap",
}


@pytest.fixture(autouse=True)
def _isolated_artifacts(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_EXECUTOR_SANITIZE", raising=False)
    monkeypatch.setenv("REPRO_PLANCACHE_DIR", str(tmp_path / "cache"))
    clear_executor_memo()
    yield
    clear_executor_memo()


def _random_data(kernel, num_nodes, num_inter, seed):
    rng = np.random.default_rng(seed)
    ds = Dataset(
        "hyp",
        num_nodes,
        rng.integers(0, num_nodes, num_inter).astype(np.int64),
        rng.integers(0, num_nodes, num_inter).astype(np.int64),
    )
    return _mk(kernel, ds, seed=seed + 1)


def _assert_identical(ref, got, context):
    for name in ref.arrays:
        assert np.array_equal(ref.arrays[name], got.arrays[name]), (
            context, name,
        )


def _two_tile_schedule(data):
    sizes = data.loop_sizes()
    return [
        [np.arange(0, n // 2, dtype=np.int64) for n in sizes],
        [np.arange(n // 2, n, dtype=np.int64) for n in sizes],
    ]


def test_index_faults_cover_the_registry():
    """Every reordering corruptor in faults.py has a sanitizer verdict —
    a new corruptor must be classified here before it ships."""
    registry = {
        name
        for name, fault in CORRUPTORS.items()
        if fault.corrupt_array is not None
    }
    assert registry == set(INDEX_FAULTS)


@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[
        HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
    ],
)
@given(
    kernel=st.sampled_from(KERNELS),
    num_nodes=st.integers(min_value=4, max_value=80),
    num_inter=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=10_000),
    num_steps=st.integers(min_value=1, max_value=3),
)
def test_sanitized_bit_identical_on_valid_data(
    kernel, num_nodes, num_inter, seed, num_steps
):
    """The guard prologue never perturbs a valid run: sanitized output
    equals unguarded output bit for bit, on every backend."""
    base = _random_data(kernel, num_nodes, num_inter, seed)
    for backend in COMPILED_BACKENDS:
        plain = run_numeric(
            base.copy(), num_steps=num_steps, backend=backend
        )
        guarded = run_numeric(
            base.copy(), num_steps=num_steps, backend=backend, sanitize=True
        )
        _assert_identical(plain, guarded, (kernel, backend, seed))


@pytest.mark.parametrize("fault_name", sorted(INDEX_FAULTS))
@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("side", ["left", "right"])
def test_every_index_corruptor_traps_or_stays_safe(
    fault_name, backend, side
):
    fault = CORRUPTORS[fault_name]
    base = _random_data("moldyn", 16, 32, seed=11)
    rng = np.random.default_rng(7)
    corrupted = fault.corrupt_array(getattr(base, side), rng)
    setattr(base, side, corrupted)

    if INDEX_FAULTS[fault_name] == "trap":
        before = {k: v.copy() for k, v in base.arrays.items()}
        with pytest.raises(ExecutorBoundsError) as info:
            run_numeric(base, backend=backend, sanitize=True)
        assert info.value.stage == "sanitizer"
        assert info.value.array is not None
        # The guard scans before any mutation: arrays untouched.
        for k in before:
            assert np.array_equal(before[k], base.arrays[k]), k
    else:
        # Legal corruption (still a well-formed index array): must run,
        # and must agree with the library executor on the same data.
        ref = run_numeric(base.copy(), backend="library")
        got = run_numeric(base.copy(), backend=backend, sanitize=True)
        _assert_identical(ref, got, (fault_name, backend, side))


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_tiled_sanitizer_identity_and_schedule_trap(backend):
    data = make_kernel_data("moldyn", generate_dataset("mol1", scale=64))
    schedule = _two_tile_schedule(data)

    plain = run_numeric_wavefront(
        data.copy(), schedule, None, num_steps=2, backend=backend
    )
    guarded = run_numeric_wavefront(
        data.copy(), schedule, None, num_steps=2, backend=backend,
        sanitize=True,
    )
    _assert_identical(plain, guarded, (backend, "tiled"))

    # A schedule entry pointing past its loop extent must trap.
    broken = [[it.copy() for it in tile] for tile in schedule]
    broken[1][0][0] = data.num_nodes + 99
    with pytest.raises(ExecutorBoundsError) as info:
        run_numeric_wavefront(
            data.copy(), broken, None, backend=backend, sanitize=True
        )
    assert info.value.stage == "sanitizer"
    assert "schedule" in (info.value.array or "")


class _Waves:
    """Minimal stand-in for a WavefrontSchedule: just .groups()."""

    def __init__(self, groups):
        self._groups = groups

    def groups(self):
        return self._groups


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_tiled_sanitizer_wave_group_trap(backend):
    data = make_kernel_data("moldyn", generate_dataset("mol1", scale=64))
    schedule = _two_tile_schedule(data)
    bad = _Waves([np.array([0], dtype=np.int64), np.array([5], dtype=np.int64)])
    with pytest.raises(ExecutorBoundsError) as info:
        run_numeric_wavefront(
            data.copy(), schedule, bad, backend=backend, sanitize=True
        )
    assert info.value.stage == "sanitizer"


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("backend", ("library",) + COMPILED_BACKENDS)
@pytest.mark.parametrize("shape", ["short-right", "short-data-array"])
def test_mis_shaped_operands_trap_on_every_tier(shape, backend, sanitize):
    """Operand lengths are outside input, not sanitizer work: a short
    ``right`` (the unsanitized C tier used to read past its end) or a
    short data array is a typed trap on every tier, guarded or not,
    untiled and tiled, before any mutation."""
    data = _random_data("moldyn", 16, 32, seed=11)
    schedule = _two_tile_schedule(data)
    if shape == "short-right":
        data.right = data.right[:-5]
        culprit = "right"
    else:
        data.arrays["fx"] = data.arrays["fx"][:-3].copy()
        culprit = "fx"
    before = {k: v.copy() for k, v in data.arrays.items()}
    for run in (
        lambda: run_numeric(data, backend=backend, sanitize=sanitize),
        lambda: run_numeric_wavefront(
            data, schedule, None, backend=backend, sanitize=sanitize
        ),
    ):
        with pytest.raises(ExecutorBoundsError) as info:
            run()
        assert info.value.array == culprit
        guarded = sanitize and backend != "library"
        assert info.value.stage == ("sanitizer" if guarded else "executor")
        for k in before:
            assert np.array_equal(before[k], data.arrays[k]), k


def test_sanitize_env_switch(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR_SANITIZE", "1")
    compiled = compile_executor("moldyn", backend="numpy", memo=False)
    assert compiled.sanitized
    monkeypatch.setenv("REPRO_EXECUTOR_SANITIZE", "0")
    compiled = compile_executor("moldyn", backend="numpy", memo=False)
    assert not compiled.sanitized


def test_sanitized_artifact_is_distinct():
    plain = compile_executor("moldyn", backend="numpy", memo=False)
    guarded = compile_executor(
        "moldyn", backend="numpy", memo=False, sanitize=True
    )
    assert plain.artifact_path != guarded.artifact_path
    assert guarded.sanitized and not plain.sanitized


def test_library_backend_ignores_sanitize():
    data = make_kernel_data("moldyn", generate_dataset("mol1", scale=64))
    ref = run_numeric(data.copy(), backend="library")
    got = run_numeric(data.copy(), backend="library", sanitize=True)
    _assert_identical(ref, got, "library")
