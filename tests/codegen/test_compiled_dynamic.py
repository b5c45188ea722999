"""Compiled dynamic-scheduler identity: library waves = numpy = C, bit for bit.

The counter-scheduled executors (``scheduler="dynamic"``) must
reproduce the level-synchronous wave executor's floating-point output
exactly — every backend, every thread count, with and without the
sanitizer, through both the ``compile_executor`` API and the
``run_numeric_wavefront`` dispatcher.  ``allclose`` is deliberately
absent: the contract is byte equality.
"""

import shutil
import subprocess

import numpy as np
import pytest

from repro.cachesim.machines import machine_by_name
from repro.errors import LegalityError, ValidationError
from repro.eval.compositions import fst_seed_block
from repro.kernels import generate_dataset, make_kernel_data
from repro.lowering import toolchain
from repro.lowering.executor import clear_executor_memo, compile_executor
from repro.lowering.passes import PassConfig
from repro.lowering.schedule import tile_dag, tile_dag_from_tiling
from repro.runtime.executor import run_numeric_wavefront
from repro.runtime.inspector import (
    ComposedInspector,
    CPackStep,
    FullSparseTilingStep,
    LexGroupStep,
    dependence_edges,
)
from repro.transforms import tile_wavefronts

pytestmark = pytest.mark.compiled

HAVE_CC = toolchain.have_toolchain()[0]
COMPILED_BACKENDS = ("numpy", "c") if HAVE_CC else ("numpy",)
ALL_BACKENDS = ("library",) + COMPILED_BACKENDS

CASES = [("moldyn", "mol1"), ("irreg", "foil"), ("nbf", "foil")]
THREADS = (1, 2, 4)


@pytest.fixture(autouse=True)
def _isolated_artifacts(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_EXECUTOR_SCHEDULER", raising=False)
    monkeypatch.delenv("REPRO_EXECUTOR_THREADS", raising=False)
    monkeypatch.setenv("REPRO_PLANCACHE_DIR", str(tmp_path / "cache"))
    clear_executor_memo()
    yield
    clear_executor_memo()


def _tiled_case(kernel, dataset):
    """Small-seed tiling (many tiles, wide waves) + edge-derived DAG."""
    machine = machine_by_name("pentium4")
    data = make_kernel_data(kernel, generate_dataset(dataset, scale=128))
    seed = max(4, fst_seed_block(data, machine) // 8)
    steps = [CPackStep(), LexGroupStep(), FullSparseTilingStep(seed)]
    result = ComposedInspector(steps).run(data)
    d = result.transformed
    edges = dependence_edges(d)
    waves = tile_wavefronts(result.tiling, edges)
    dag = tile_dag_from_tiling(result.tiling, edges, waves=waves)
    return d, result.tiling.schedule(), waves, dag


def _reference(kernel, d, schedule, groups):
    ex = compile_executor(
        kernel, backend="library", tiled=True, scheduler="wave"
    )
    ref = {k: v.copy() for k, v in d.arrays.items()}
    ex.run(ref, d.left, d.right, schedule, groups, num_steps=3, num_threads=1)
    return ref


@pytest.mark.parametrize("kernel,dataset", CASES)
@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("sanitize", [False, True])
def test_dynamic_bit_identical_to_waves(kernel, dataset, backend, sanitize):
    d, schedule, waves, dag = _tiled_case(kernel, dataset)
    groups = waves.groups()
    ref = _reference(kernel, d, schedule, groups)
    ex = compile_executor(
        kernel,
        backend=backend,
        tiled=True,
        sanitize=sanitize,
        scheduler="dynamic",
    )
    assert ex.scheduler == "dynamic"
    for num_threads in THREADS:
        out = {k: v.copy() for k, v in d.arrays.items()}
        ex.run(
            out,
            d.left,
            d.right,
            schedule,
            groups,
            num_steps=3,
            dag=dag,
            num_threads=num_threads,
        )
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes(), (
                kernel, backend, sanitize, num_threads, name,
            )
    # No wavefront grouping and no DAG: the serial tile chain.
    ref = _reference(kernel, d, schedule, None)
    out = {k: v.copy() for k, v in d.arrays.items()}
    ex.run(out, d.left, d.right, schedule, None, num_steps=3, num_threads=2)
    for name in ref:
        assert ref[name].tobytes() == out[name].tobytes(), (
            kernel, backend, sanitize, "serial", name,
        )


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_dispatcher_scheduler_identity(backend):
    """run_numeric_wavefront(scheduler="dynamic") matches the wave path."""
    kernel, dataset = "moldyn", "mol1"
    d, schedule, waves, dag = _tiled_case(kernel, dataset)
    ref = run_numeric_wavefront(
        d.copy(), schedule, waves, num_steps=3, parallel=False
    )
    for num_threads in (1, 2):
        got = run_numeric_wavefront(
            d.copy(),
            schedule,
            waves,
            num_steps=3,
            backend=backend,
            scheduler="dynamic",
            dag=dag,
            num_threads=num_threads,
        )
        for name in ref.arrays:
            assert np.array_equal(ref.arrays[name], got.arrays[name]), (
                backend, num_threads, name,
            )


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_dynamic_rejects_cyclic_dag(backend):
    """IRV006 at the executor boundary: a cyclic counter graph raises
    before the compiled engine runs (it would deadlock inside)."""
    kernel, dataset = "moldyn", "mol1"
    d, schedule, waves, _ = _tiled_case(kernel, dataset)
    num_tiles = len(schedule)
    chain = np.arange(num_tiles - 1, dtype=np.int64)
    src = np.concatenate([chain, [num_tiles - 1]])
    dst = np.concatenate([chain + 1, [0]])  # back edge closes the cycle
    cyclic = tile_dag(num_tiles, src, dst)
    ex = compile_executor(
        kernel, backend=backend, tiled=True, scheduler="dynamic"
    )
    arrays = {k: v.copy() for k, v in d.arrays.items()}
    with pytest.raises(LegalityError, match="IRV006"):
        ex.run(
            arrays,
            d.left,
            d.right,
            schedule,
            waves.groups(),
            dag=cyclic,
            num_threads=2,
        )


def test_wave_and_dynamic_share_one_artifact(tmp_path, monkeypatch):
    """``scheduler`` picks a driver at run time, not a build: both names
    bind the same artifact, and a fresh store holds no ``dyn.*`` file."""
    monkeypatch.setenv("REPRO_PLANCACHE_DIR", str(tmp_path / "cache2"))
    clear_executor_memo()
    for backend in COMPILED_BACKENDS:
        wave = compile_executor(
            "moldyn", backend=backend, tiled=True, scheduler="wave"
        )
        dynamic = compile_executor(
            "moldyn", backend=backend, tiled=True, scheduler="dynamic"
        )
        assert (wave.scheduler, dynamic.scheduler) == ("wave", "dynamic")
        assert wave.artifact_path == dynamic.artifact_path
        assert dynamic.from_cache and not wave.from_cache
    files = [p for p in (tmp_path / "cache2").rglob("*") if p.is_file()]
    assert files and not [p for p in files if ".dyn." in p.name]


@pytest.mark.skipif(
    not HAVE_CC or shutil.which("nm") is None, reason="needs cc and nm"
)
@pytest.mark.parametrize("sanitize", [False, True])
def test_tiled_shared_object_exports_one_entry_point(sanitize):
    ex = compile_executor("moldyn", backend="c", tiled=True, sanitize=sanitize)
    listing = subprocess.run(
        ["nm", "-D", "--defined-only", ex.artifact_path],
        capture_output=True, text=True, check=True,
    ).stdout
    exported = [line.split()[-1] for line in listing.splitlines() if line]
    assert [name for name in exported if not name.startswith("_")] == [
        "run_tiled"
    ]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize(
    "config,needle",
    [
        (PassConfig(parallelize=False), "wave-parallel skeleton"),
        (PassConfig(fission=False, vectorize=False), "scalar interaction"),
    ],
)
def test_dynamic_refuses_a_program_that_is_not_counter_schedulable(
    backend, config, needle
):
    """The static IRV006 obligations gate ``scheduler="dynamic"`` on every
    tier, computed from the rewritten program; the wave bind of the same
    ablation still builds (``verify=False``: a wave-parallel scalar loop
    is the verifier's IRV002, which is not what this test is about)."""
    with pytest.raises(LegalityError, match="IRV006") as info:
        compile_executor(
            "moldyn", backend=backend, tiled=True, config=config,
            scheduler="dynamic",
        )
    assert needle in str(info.value)
    assert info.value.stage == "irverify"
    compile_executor(
        "moldyn", backend=backend, tiled=True, config=config,
        scheduler="wave", verify=False,
    )


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_wave_groups_that_contradict_the_dag_are_rejected(backend, sanitize):
    """One commit order per call.  ``wave_groups`` from one wavefront and
    a ``dag`` built from another used to run the groups under ``wave``
    and silently ignore them under ``dynamic`` — two different folds of
    the reduction, no error."""
    kernel, dataset = "moldyn", "mol1"
    d, schedule, waves, dag = _tiled_case(kernel, dataset)
    num_tiles = len(schedule)
    # A legal DAG over the same tiles with another commit order: levels
    # recomputed from the edges alone order ties by tile id, the serial
    # chain below does not.
    other = tile_dag(
        num_tiles,
        np.arange(num_tiles - 1, dtype=np.int64),
        np.arange(1, num_tiles, dtype=np.int64),
    )
    assert not np.array_equal(other.order, waves.groups().flat)
    first = int(np.flatnonzero(other.order != waves.groups().flat)[0])
    ex = compile_executor(
        kernel, backend=backend, tiled=True, sanitize=sanitize,
        scheduler="dynamic",
    )
    arrays = {k: v.copy() for k, v in d.arrays.items()}
    with pytest.raises(ValidationError, match=f"position {first} ") as info:
        ex.run(
            arrays, d.left, d.right, schedule, waves.groups(), dag=other,
            num_threads=2,
        )
    guarded = sanitize and backend != "library"
    assert info.value.stage == ("sanitizer" if guarded else "executor")
    for name, before in d.arrays.items():
        assert arrays[name].tobytes() == before.tobytes(), name
    # A dag for fewer tiles than the schedule has is as wrong.
    small = tile_dag(2, np.array([0]), np.array([1]))
    with pytest.raises(ValidationError, match="covers 2 tiles"):
        ex.run(arrays, d.left, d.right, schedule, dag=small, num_threads=2)
    # The matching pair keeps working, and equals the wave bind.
    ref = _reference(kernel, d, schedule, waves.groups())
    ex.run(
        arrays, d.left, d.right, schedule, waves.groups(), num_steps=3,
        dag=dag, num_threads=2,
    )
    for name in ref:
        assert ref[name].tobytes() == arrays[name].tobytes(), name


def test_untiled_executor_ignores_scheduler():
    """The dynamic scheduler is a tiled-executor concept; an untiled
    bind resolves to the wave (serial) shape regardless of the knob."""
    ex = compile_executor("moldyn", backend="numpy", scheduler="dynamic")
    assert ex.scheduler == "wave"


def test_scheduler_env_resolution(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR_SCHEDULER", "dynamic")
    clear_executor_memo()
    ex = compile_executor("moldyn", backend="numpy", tiled=True)
    assert ex.scheduler == "dynamic"
