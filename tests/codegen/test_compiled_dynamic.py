"""The ``scheduler``/``dag``/``num_threads`` keywords select nothing.

Every tier has one driver, the level-synchronous wave loop, and one
commit order per call: the wave groups it is handed.  The keywords of
the deleted counter pool stay accepted because the end-to-end harness
still passes them; this file pins that they change nothing: a
``scheduler="dynamic"`` bind is the very memoised executor a ``"wave"``
bind returns, and the harness's call shape — ``scheduler="dynamic",
dag=tile_dag_from_tiling(...), num_threads=N`` — is byte-equal to the
wave call on every tier, with and without the sanitizer.  ``allclose``
is deliberately absent: the contract is byte equality.
"""

import shutil
import subprocess

import pytest

from repro.cachesim.machines import machine_by_name
from repro.errors import ValidationError
from repro.eval.compositions import fst_seed_block
from repro.kernels import generate_dataset, make_kernel_data
from repro.lowering import toolchain
from repro.lowering.executor import clear_executor_memo, compile_executor
from repro.lowering.schedule import tile_dag_from_tiling
from repro.runtime.executor import run_numeric_wavefront
from repro.runtime.inspector import (
    ComposedInspector,
    CPackStep,
    FullSparseTilingStep,
    LexGroupStep,
    dependence_edges,
)
from repro.transforms import tile_wavefronts
from tests.kernels.oracle import run_oracle

pytestmark = pytest.mark.compiled

HAVE_CC = toolchain.have_toolchain()[0]
COMPILED_BACKENDS = ("numpy", "c") if HAVE_CC else ("numpy",)
#: ``library`` is the keepalive alias of ``numpy`` that the frozen
#: end-to-end harness still binds: a tier here until the alias goes.
ALL_BACKENDS = ("library",) + COMPILED_BACKENDS

CASES = [("moldyn", "mol1"), ("irreg", "foil"), ("nbf", "foil")]
THREADS = (1, 2, 4)


@pytest.fixture(autouse=True)
def _isolated_artifacts(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
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


def _reference(d, schedule, waves):
    return run_oracle(d.copy(), schedule, waves, num_steps=3).arrays


@pytest.mark.parametrize("kernel,dataset", CASES)
@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("sanitize", [False, True])
def test_dynamic_bit_identical_to_waves(kernel, dataset, backend, sanitize):
    """A ``"dynamic"`` bind is the ``"wave"`` bind, and the harness's
    call shape through it is byte-equal to the oracle's wave run at
    every ``num_threads`` — with a wavefront grouping and without."""
    d, schedule, waves, dag = _tiled_case(kernel, dataset)
    ref = _reference(d, schedule, waves)
    ex = compile_executor(
        kernel, backend=backend, tiled=True, sanitize=sanitize,
        scheduler="dynamic",
    )
    assert ex is compile_executor(
        kernel, backend=backend, tiled=True, sanitize=sanitize,
        scheduler="wave",
    )
    for num_threads in THREADS:
        out = run_numeric_wavefront(
            d.copy(), schedule, waves, num_steps=3, backend=backend,
            sanitize=sanitize, scheduler="dynamic", dag=dag,
            num_threads=num_threads,
        )
        for name in ref:
            assert ref[name].tobytes() == out.arrays[name].tobytes(), (
                kernel, backend, sanitize, num_threads, name,
            )
    # No wavefront grouping: the serial tile chain, whatever dag says.
    ref = _reference(d, schedule, None)
    out = run_numeric_wavefront(
        d.copy(), schedule, None, num_steps=3, backend=backend,
        sanitize=sanitize, scheduler="dynamic", dag=dag, num_threads=2,
    )
    for name in ref:
        assert ref[name].tobytes() == out.arrays[name].tobytes(), (
            kernel, backend, sanitize, "serial", name,
        )


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_dispatcher_scheduler_identity(backend):
    """The end-to-end harness's ``run_numeric_wavefront`` call, verbatim,
    equals the wave call on every tier."""
    kernel, dataset = "moldyn", "mol1"
    d, schedule, waves, dag = _tiled_case(kernel, dataset)
    ref = run_numeric_wavefront(
        d.copy(), schedule, waves, num_steps=3, backend=backend
    )
    got = run_numeric_wavefront(
        d.copy(), schedule, waves, num_steps=3, backend=backend,
        scheduler="dynamic", dag=dag, num_threads=1,
    )
    for name in ref.arrays:
        assert ref.arrays[name].tobytes() == got.arrays[name].tobytes(), (
            backend, name,
        )


def test_wave_and_dynamic_share_one_artifact(tmp_path, monkeypatch):
    """Every accepted scheduler name returns the one memoised executor:
    one artifact, one proof, and a fresh store holds no ``dyn.*`` file."""
    monkeypatch.setenv("REPRO_PLANCACHE_DIR", str(tmp_path / "cache2"))
    clear_executor_memo()
    for backend in ALL_BACKENDS:
        wave = compile_executor(
            "moldyn", backend=backend, tiled=True, scheduler="wave"
        )
        assert wave.verified is True
        for name in (None, "auto", "dynamic"):
            assert compile_executor(
                "moldyn", backend=backend, tiled=True, scheduler=name
            ) is wave, (backend, name)
    files = [p for p in (tmp_path / "cache2").rglob("*") if p.is_file()]
    assert files and not [p for p in files if ".dyn." in p.name]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_unknown_scheduler_name_is_a_validation_error(backend):
    """The name is outside input, so a typo is still a typed error, on
    every tier and through both entry points."""
    for tiled in (False, True):
        with pytest.raises(ValidationError, match="unknown scheduler"):
            compile_executor(
                "moldyn", backend=backend, tiled=tiled, scheduler="bogus"
            )
    data = make_kernel_data("moldyn", generate_dataset("mol1", scale=256))
    with pytest.raises(ValidationError, match="unknown scheduler"):
        run_numeric_wavefront(
            data, [], None, backend=backend, scheduler="counter"
        )


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
    undefined = subprocess.run(
        ["nm", "-D", "--undefined-only", ex.artifact_path],
        capture_output=True, text=True, check=True,
    ).stdout
    assert "pthread" not in undefined


def test_untiled_executor_ignores_scheduler():
    """An untiled bind accepts the name and binds what it binds
    without one."""
    ex = compile_executor("moldyn", backend="numpy", scheduler="dynamic")
    assert ex is compile_executor("moldyn", backend="numpy")
    assert not ex.tiled
