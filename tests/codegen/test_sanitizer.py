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

from repro.errors import ExecutorBoundsError, ValidationError
from repro.kernels import generate_dataset, make_kernel_data
from repro.kernels.data import make_kernel_data as _mk
from repro.kernels.datasets import Dataset
from repro.lowering import toolchain
from repro.lowering.executor import clear_executor_memo, compile_executor
from repro.runtime.executor import run_numeric, run_numeric_wavefront
from repro.runtime.faults import CORRUPTORS
from repro.transforms.fst import TilingFunction
from repro.transforms.tile_schedule import CSRLists, TileSchedule
from tests.kernels.oracle import run_oracle

pytestmark = pytest.mark.compiled

HAVE_CC = toolchain.have_toolchain()[0]
COMPILED_BACKENDS = ("numpy", "c") if HAVE_CC else ("numpy",)
#: ``library`` is the keepalive alias of ``numpy`` that the frozen
#: end-to-end harness still binds: a tier here until the alias goes.
TIERS = ("library",) + COMPILED_BACKENDS

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
    equals unguarded output and the oracle's bit for bit, on every
    backend."""
    base = _random_data(kernel, num_nodes, num_inter, seed)
    ref = run_oracle(base.copy(), num_steps=num_steps)
    for backend in COMPILED_BACKENDS:
        plain = run_numeric(
            base.copy(), num_steps=num_steps, backend=backend
        )
        guarded = run_numeric(
            base.copy(), num_steps=num_steps, backend=backend, sanitize=True
        )
        _assert_identical(ref, plain, (kernel, backend, seed))
        _assert_identical(ref, guarded, (kernel, backend, seed))


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
        # and must agree with the oracle on the same data.
        ref = run_oracle(base.copy())
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


def _remarshalled(data, corrupt, index_form=False):
    """The marshalled two-tile schedule (range form in every loop, or its
    list form re-marshalled: index form) rebuilt around ``corrupt(flat,
    offsets)`` of loop 0 through the bare, trusting constructor — the
    only way a marshalled schedule can break its own invariant."""
    schedule = TilingFunction(
        [np.arange(n, dtype=np.int64) * 2 // n for n in data.loop_sizes()], 2
    ).schedule()
    if index_form:
        schedule = TileSchedule.from_tiles(list(schedule))
    loops = list(schedule.loops)
    flat, offsets = loops[0].flat.copy(), loops[0].offsets.copy()
    corrupt(flat, offsets)
    loops[0] = CSRLists(flat, offsets, loops[0].is_range)
    return TileSchedule(loops, 2)


def _set(which, index, value):
    def corrupt(flat, offsets):
        {"flat": flat, "offsets": offsets}[which][index] = value

    return corrupt


#: Corruptions of an already-marshalled schedule and what a sanitized
#: bind owes each: ``trap`` (typed error before any mutation), or
#: ``benign`` (memory-safe, output equal to the oracle's on the same
#: schedule).  Range form has no iteration array for the C guard to
#: scan, so it scans the tile offsets; the Python tiers slice ``flat``
#: with them, which clips instead of addressing out of bounds.
#: name -> (corruptor, index form?, {backend: verdict}).
SCHEDULE_FAULTS = {
    "iters-entry-out-of-range": (
        _set("flat", 0, 10**6), True, {"c": "trap", "numpy": "trap"},
    ),
    "offsets-boundary-shifted": (
        _set("offsets", 1, 3), False, {"c": "benign", "numpy": "benign"},
    ),
    "offsets-boundary-past-extent": (
        _set("offsets", 1, 10**6), False, {"c": "trap", "numpy": "benign"},
    ),
    "offsets-boundary-negative": (
        _set("offsets", 1, -5), False, {"c": "trap", "numpy": "benign"},
    ),
    "offsets-first-nonzero": (
        _set("offsets", 0, 2), False, {"c": "trap", "numpy": "benign"},
    ),
}


@pytest.mark.parametrize("fault_name", sorted(SCHEDULE_FAULTS))
@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_marshalled_schedule_corruptors_trap_or_stay_safe(fault_name, backend):
    corrupt, index_form, verdicts = SCHEDULE_FAULTS[fault_name]
    data = _random_data("moldyn", 16, 32, seed=11)
    schedule = _remarshalled(data, corrupt, index_form)
    if verdicts[backend] == "trap":
        before = {k: v.copy() for k, v in data.arrays.items()}
        with pytest.raises(ExecutorBoundsError) as info:
            run_numeric_wavefront(
                data, schedule, None, backend=backend, sanitize=True
            )
        assert info.value.stage == "sanitizer"
        assert "schedule" in info.value.array
        for k in before:
            assert np.array_equal(before[k], data.arrays[k]), k
    else:
        ref = run_oracle(data.copy(), schedule)
        for sanitize in (True, False):
            got = run_numeric_wavefront(
                data.copy(), schedule, None, backend=backend,
                sanitize=sanitize,
            )
            _assert_identical(ref, got, (fault_name, backend, sanitize))


def _half(schedule, data):
    return [schedule[0]]


def _repeated(schedule, data):
    tiles = [[it.copy() for it in tile] for tile in schedule]
    tiles[1][0][:3] = tiles[0][0][:3]  # three listed twice, three never
    return tiles


def _last_offset_short(schedule, data):
    return _remarshalled(data, lambda flat, off: off.__setitem__(-1, off[-1] - 2))


#: Schedules that are not partitions: each used to run to completion on
#: every tier and return arrays != the untiled result.  name -> schedule
#: builder.
NON_PARTITIONS = {
    "no-tiles": lambda schedule, data: [],
    "half-of-each-loop": _half,
    "three-iterations-twice": _repeated,
    "last-offset-short": _last_offset_short,
}


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("backend", TIERS)
@pytest.mark.parametrize("name", sorted(NON_PARTITIONS))
def test_non_partition_schedules_are_typed_errors_on_every_tier(
    name, backend, sanitize
):
    data = _random_data("moldyn", 16, 32, seed=11)
    schedule = NON_PARTITIONS[name](_two_tile_schedule(data), data)
    before = {k: v.copy() for k, v in data.arrays.items()}
    with pytest.raises(ValidationError, match="cover|more than once"):
        run_numeric_wavefront(
            data, schedule, None, backend=backend, sanitize=sanitize
        )
    for k in before:
        assert np.array_equal(before[k], data.arrays[k]), k


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("backend", TIERS)
def test_out_of_range_schedule_entry_traps_on_every_tier(backend, sanitize):
    """What the sanitizer alone used to catch: now a typed trap on every
    tier (an unsanitized C bind would have read out of bounds)."""
    data = _random_data("moldyn", 16, 32, seed=11)
    schedule = _two_tile_schedule(data)
    broken = [[it.copy() for it in tile] for tile in schedule]
    broken[1][1][0] = -1
    before = {k: v.copy() for k, v in data.arrays.items()}
    with pytest.raises(ExecutorBoundsError) as info:
        run_numeric_wavefront(
            data, broken, None, backend=backend, sanitize=sanitize
        )
    assert info.value.stage == ("sanitizer" if sanitize else "executor")
    assert info.value.array == "schedule[Lj]"
    for k in before:
        assert np.array_equal(before[k], data.arrays[k]), k


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("backend", TIERS)
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
        assert info.value.stage == ("sanitizer" if sanitize else "executor")
        for k in before:
            assert np.array_equal(before[k], data.arrays[k]), k


def test_sanitize_env_switch(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR_SANITIZE", "1")
    compiled = compile_executor("moldyn", backend="numpy", memo=False)
    assert compiled.sanitized
    monkeypatch.setenv("REPRO_EXECUTOR_SANITIZE", "0")
    compiled = compile_executor("moldyn", backend="numpy", memo=False)
    assert not compiled.sanitized


@pytest.mark.parametrize("value", ["enabled", "2"])
def test_sanitize_env_typo_is_an_error(monkeypatch, value):
    """A mistyped switch must not silently read as off."""
    monkeypatch.setenv("REPRO_EXECUTOR_SANITIZE", value)
    with pytest.raises(ValidationError, match="REPRO_EXECUTOR_SANITIZE"):
        compile_executor("moldyn", backend="numpy", memo=False)


def test_sanitized_artifact_is_distinct():
    plain = compile_executor("moldyn", backend="numpy", memo=False)
    guarded = compile_executor(
        "moldyn", backend="numpy", memo=False, sanitize=True
    )
    assert plain.artifact_path != guarded.artifact_path
    assert guarded.sanitized and not plain.sanitized


def test_library_alias_honours_sanitize():
    """The alias binds the guarded ``numpy`` build, not an unguarded
    hand-written table."""
    data = make_kernel_data("moldyn", generate_dataset("mol1", scale=64))
    bound = compile_executor("moldyn", backend="library", sanitize=True)
    assert bound.backend == "numpy" and bound.sanitized
    got = run_numeric(data.copy(), backend="library", sanitize=True)
    _assert_identical(run_oracle(data.copy()), got, "library")


def test_sanitize_env_guards_the_default_tier(monkeypatch):
    """``REPRO_EXECUTOR_SANITIZE=1`` reaches a default ``run_numeric``:
    a negative index is a typed trap, not a NumPy wrap-around."""
    monkeypatch.setenv("REPRO_EXECUTOR_SANITIZE", "1")
    data = make_kernel_data("irreg", generate_dataset("foil", scale=256))
    data.left[0] = -1
    before = {k: v.copy() for k, v in data.arrays.items()}
    trap = rf"left\[0\] = -1 outside \[0, {data.num_nodes}\)"
    with pytest.raises(ExecutorBoundsError, match=trap) as info:
        run_numeric(data)
    assert info.value.stage == "sanitizer"
    for k in before:
        assert np.array_equal(before[k], data.arrays[k]), k
