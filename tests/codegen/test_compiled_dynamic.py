"""The ``waves``/``scheduler``/``dag``/``num_threads`` keywords select
nothing.

Every tier has one driver and one loop order: tiles in ascending id
(the paper's Figure 14), each loop of a tile in program order.  The
keywords of the deleted wave grouping and counter pool stay accepted
because the end-to-end harness still passes them; this file pins that
they change nothing: a ``scheduler="dynamic"`` bind is the very
memoised executor a ``"wave"`` bind returns, and the harness's call
shape — a wavefront, ``scheduler="dynamic",
dag=tile_dag_from_tiling(...), num_threads=N`` — is byte-equal to the
oracle's ascending-tile fold on every tier, with and without the
sanitizer.  ``allclose`` is deliberately absent: the contract is byte
equality.
"""

import shutil
import subprocess

import numpy as np
import pytest

from repro.cachesim.machines import machine_by_name
from repro.errors import ValidationError
from repro.eval.compositions import fst_seed_block
from repro.kernels import generate_dataset, make_kernel_data
from repro.kernels.datasets import Dataset
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
from repro.transforms.fst import TilingFunction
from tests.kernels.oracle import run_oracle

pytestmark = pytest.mark.compiled

HAVE_CC = toolchain.have_toolchain()[0]
COMPILED_BACKENDS = ("numpy", "c") if HAVE_CC else ("numpy",)
#: ``library`` is the keepalive alias of ``numpy`` that the frozen
#: end-to-end harness still binds: a tier here until the alias goes.
ALL_BACKENDS = ("library",) + COMPILED_BACKENDS

#: ``crossed`` is the hand-built moldyn case of :func:`_crossed_case`.
CASES = [
    ("moldyn", "mol1"), ("irreg", "foil"), ("nbf", "foil"),
    ("moldyn", "crossed"),
]
THREADS = (1, 2, 4)


@pytest.fixture(autouse=True)
def _isolated_artifacts(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
    monkeypatch.setenv("REPRO_PLANCACHE_DIR", str(tmp_path / "cache"))
    clear_executor_memo()
    yield
    clear_executor_memo()


def _crossed_case():
    """A hand-built moldyn tiling whose wavefronts run a higher tile id
    before a lower one that commits to the same node.

    Interactions ``(0,1), (1,2), (2,5), (3,5)`` are tiles 0-3.  Tile 2
    waits for tile 1 (node 2's position), tile 3 only for tile 0 (node
    5's), so the wavefronts are ``[0], [1, 3], [2], [4]``: tile 3 runs
    before tile 2, and both commit to ``fx[5]``; node 5's velocity is in
    tile 4.  The payload makes the two folds of ``fx[5]`` round apart
    (``(1 - 1) - 1e-16`` against ``(1 - 1e-16) - 1``)."""
    left = np.array([0, 1, 2, 3], dtype=np.int64)
    right = np.array([1, 2, 5, 5], dtype=np.int64)
    d = make_kernel_data("moldyn", Dataset("crossed", 6, left, right), seed=3)
    d.arrays["x"][:] = [0.0, 0.25, 1.0005, 0.0005 + 1e-16, 0.0, 0.0]
    d.arrays["vx"][:] = 0.0
    d.arrays["fx"][:] = [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    tiling = TilingFunction(
        [
            np.array([0, 0, 1, 3, 4, 0], dtype=np.int64),
            np.array([0, 1, 2, 3], dtype=np.int64),
            np.array([0, 1, 2, 3, 4, 4], dtype=np.int64),
        ],
        5,
    )
    return d, tiling


def _tiled_case(kernel, dataset):
    """Small-seed tiling (many tiles, wide waves) + edge-derived DAG."""
    if dataset == "crossed":
        d, tiling = _crossed_case()
    else:
        machine = machine_by_name("pentium4")
        data = make_kernel_data(kernel, generate_dataset(dataset, scale=128))
        seed = max(4, fst_seed_block(data, machine) // 8)
        steps = [CPackStep(), LexGroupStep(), FullSparseTilingStep(seed)]
        result = ComposedInspector(steps).run(data)
        d, tiling = result.transformed, result.tiling
    edges = dependence_edges(d)
    waves = tile_wavefronts(tiling, edges)
    dag = tile_dag_from_tiling(tiling, edges, waves=waves)
    return d, tiling.schedule(), waves, dag


def _reference(d, schedule):
    """The oracle's fold: tiles in ascending id."""
    return run_oracle(d.copy(), schedule, num_steps=3).arrays


def test_crossed_case_wave_order_folds_apart():
    """The hand-built case discriminates: its wavefronts put tile 3
    before tile 2, and running the tiles in that order folds ``fx[5]``
    to other bits than ascending tile order does."""
    d, schedule, waves, _ = _tiled_case("moldyn", "crossed")
    assert [list(group) for group in waves.groups()] == [[0], [1, 3], [2], [4]]
    in_wave_order = [schedule[t] for t in waves.groups().flat]
    ref = _reference(d, schedule)
    moved = _reference(d, in_wave_order)
    assert not all(np.array_equal(ref[k], moved[k]) for k in ref)


@pytest.mark.parametrize("kernel,dataset", CASES)
@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("sanitize", [False, True])
def test_dynamic_bit_identical_to_waves(kernel, dataset, backend, sanitize):
    """A ``"dynamic"`` bind is the ``"wave"`` bind, and the harness's
    call shape through it is byte-equal to the oracle's ascending-tile
    fold at every ``num_threads`` — with a wavefront grouping and
    without: the grouping selects nothing."""
    d, schedule, waves, dag = _tiled_case(kernel, dataset)
    ref = _reference(d, schedule)
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
    # No wavefront grouping: the same fold, whatever dag says.
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
    equals the plain call on every tier."""
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
