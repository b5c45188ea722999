"""Untiled is the trivial tiling: an untiled bind is the tiled artifact
run over one tile that holds every iteration (theta(i) = 0).

Pinned here: the untiled ``run`` of every tier equals the oracle's step
functions bit for bit, guarded or not; a corrupted index array
still traps before any mutation; bad operands are one typed error on
every tier and shape; and one kernel leaves one artifact and one proof
per tier, whichever shape binds it.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import ExecutorBoundsError, ValidationError
from repro.kernels import generate_dataset, make_kernel_data
from repro.lowering import toolchain
from repro.lowering.executor import clear_executor_memo, compile_executor
from repro.transforms.tile_schedule import trivial_schedule
from tests.kernels.oracle import STEP_FUNCTIONS, run_oracle

pytestmark = pytest.mark.compiled

HAVE_CC = toolchain.have_toolchain()[0]
#: ``library`` is the keepalive alias of ``numpy`` that the frozen
#: end-to-end harness still binds: a tier here until the alias goes.
TIERS = ("library", "numpy", "c") if HAVE_CC else ("library", "numpy")
KERNELS = ("moldyn", "nbf", "irreg")


@pytest.fixture(autouse=True)
def _isolated_artifacts(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_EXECUTOR_SANITIZE", raising=False)
    monkeypatch.setenv("REPRO_PLANCACHE_DIR", str(tmp_path / "cache"))
    clear_executor_memo()
    yield
    clear_executor_memo()


def _data(kernel="moldyn"):
    return make_kernel_data(kernel, generate_dataset("mol1", scale=64))


def _copy(arrays):
    return {name: values.copy() for name, values in arrays.items()}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("backend", TIERS)
@pytest.mark.parametrize("sanitize", [False, True])
def test_untiled_run_equals_the_step_functions(kernel, backend, sanitize):
    data = _data(kernel)
    ref = _copy(data.arrays)
    for _ in range(3):
        STEP_FUNCTIONS[kernel](ref, data.left, data.right)
    bound = compile_executor(kernel, backend=backend, sanitize=sanitize)
    got = bound.run(_copy(data.arrays), data.left, data.right, num_steps=3)
    for name in ref:
        assert np.array_equal(got[name], ref[name]), (kernel, backend, name)


@pytest.mark.parametrize("kernel", KERNELS)
def test_the_oracles_phase_table_equals_its_step_functions(kernel):
    """The oracle's two hand tables agree: its phase table under the
    tile driver over the trivial schedule is its step function."""
    data = _data(kernel)
    ref = _copy(data.arrays)
    for _ in range(3):
        STEP_FUNCTIONS[kernel](ref, data.left, data.right)
    got = run_oracle(data.copy(), num_steps=3).arrays
    for name in ref:
        assert ref[name].tobytes() == got[name].tobytes(), (kernel, name)


@pytest.mark.parametrize("backend", TIERS)
def test_corrupted_left_traps_before_any_mutation(backend):
    data = _data()
    left = data.left.copy()
    left[7] = data.num_nodes + 3
    arrays = _copy(data.arrays)
    bound = compile_executor("moldyn", backend=backend, sanitize=True)
    with pytest.raises(ExecutorBoundsError) as info:
        bound.run(arrays, left, data.right, num_steps=2)
    assert info.value.array == "left"
    assert info.value.stage == "sanitizer"
    for name, values in data.arrays.items():
        assert np.array_equal(arrays[name], values), name


def _missing_array(arrays, left, right):
    arrays = dict(arrays)
    del arrays["vx"]
    return arrays, left, right, {}


def _float_left(arrays, left, right):
    return arrays, left.astype(np.float64), right, {}


def _float32_payload(arrays, left, right):
    arrays = dict(arrays)
    arrays["fx"] = arrays["fx"].astype(np.float32)
    return arrays, left, right, {}


def _num_steps(value):
    return lambda arrays, left, right: (
        arrays, left, right, {"num_steps": value}
    )


#: Operands every tier used to answer differently (KeyError, TypeError,
#: IndexError, a silent run): now one ValidationError before any mutation.
BAD_OPERANDS = {
    "missing-data-array": _missing_array,
    "num_steps-float": _num_steps(2.5),
    "num_steps-negative": _num_steps(-1),
    "num_steps-bool": _num_steps(True),
    "float-left": _float_left,
    "float32-payload": _float32_payload,
}


@pytest.mark.parametrize("name", sorted(BAD_OPERANDS))
@pytest.mark.parametrize("backend", TIERS)
@pytest.mark.parametrize("tiled", [False, True])
def test_bad_operands_are_one_typed_error(name, backend, tiled):
    data = _data()
    arrays = _copy(data.arrays)
    operands, left, right, kwargs = BAD_OPERANDS[name](
        arrays, data.left, data.right
    )
    bound = compile_executor("moldyn", backend=backend, tiled=tiled)
    one_tile = [[np.arange(n, dtype=np.int64) for n in data.loop_sizes()]]
    schedule = [one_tile] if tiled else []
    with pytest.raises(ValidationError):
        bound.run(operands, left, right, *schedule, **kwargs)
    for key, values in data.arrays.items():
        assert np.array_equal(arrays[key], values), key


def test_trivial_schedule_is_one_range_tile_built_once():
    schedule = trivial_schedule((5, 9, 5))
    assert schedule is trivial_schedule((5, 9, 5))
    assert len(schedule) == 1 and all(schedule.is_range)
    assert [list(loop) for loop in schedule[0]] == [
        list(range(5)), list(range(9)), list(range(5)),
    ]
    # One whole range per extent, shared across loops.
    assert schedule.loops[0] is schedule.loops[2]
    assert trivial_schedule.cache_info().maxsize is not None


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_one_artifact_and_one_proof_per_kernel_and_tier(tmp_path):
    """Untiled and tiled binds share the blocked artifact and its proof:
    3 kernels x {numpy, c} x {untiled, tiled} leave 3 of each kind."""
    for kernel in KERNELS:
        for backend in ("numpy", "c"):
            for tiled in (False, True):
                compile_executor(
                    kernel, backend=backend, tiled=tiled, cache_dir=tmp_path
                )
    kinds = sorted(
        path.suffix for path in Path(tmp_path).rglob("*") if path.is_file()
    )
    assert kinds == [".c"] * 3 + [".proof"] * 3 + [".py"] * 3 + [".so"] * 3
