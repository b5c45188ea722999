"""The compiled-backend identity harness: oracle = numpy = C, bit for bit.

Every backend of the lowering tier must reproduce the hand-written
oracle's floating-point output (``tests/kernels/oracle.py``) exactly —
same operations, same order, same rounding — across all three kernels,
random datasets (Hypothesis), the tiled executor, every example
plan spec, and the no-toolchain fallback path.  ``allclose`` is
deliberately absent here: the contract is ``array_equal``.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import BackendFallbackWarning
from repro.cachesim.machines import machine_by_name
from repro.eval.compositions import fst_seed_block
from repro.kernels import generate_dataset, make_kernel_data
from repro.kernels.data import make_kernel_data as _mk
from repro.kernels.datasets import Dataset
from repro.lowering import toolchain
from repro.lowering.executor import (
    clear_executor_memo,
    compile_executor,
    reset_fallback_announcements,
)
from repro.runtime.executor import run_numeric, run_numeric_wavefront
from repro.runtime.inspector import (
    ComposedInspector,
    CPackStep,
    FullSparseTilingStep,
    LexGroupStep,
    TilePackStep,
    dependence_edges,
)
from repro.runtime.planspec import load_plan_spec
from repro.transforms import tile_wavefronts
from repro.transforms.tile_schedule import TileSchedule
from tests.kernels.oracle import run_oracle

pytestmark = pytest.mark.compiled

HAVE_CC = toolchain.have_toolchain()[0]
COMPILED_BACKENDS = ("numpy", "c") if HAVE_CC else ("numpy",)
#: ``library`` is the keepalive alias of ``numpy`` that the frozen
#: end-to-end harness still binds: a tier here until the alias goes.
TIERS = ("library",) + COMPILED_BACKENDS
PLAN_DIR = Path(__file__).resolve().parents[2] / "examples" / "plans"

KERNELS = ("moldyn", "nbf", "irreg")


@pytest.fixture(autouse=True)
def _isolated_artifacts(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
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
    num_steps=st.integers(min_value=1, max_value=4),
)
def test_backends_bit_identical_property(
    kernel, num_nodes, num_inter, seed, num_steps
):
    """The core property: on arbitrary (even degenerate) index arrays,
    every backend reproduces the oracle bit for bit."""
    base = _random_data(kernel, num_nodes, num_inter, seed)
    ref = run_oracle(base.copy(), num_steps=num_steps)
    for backend in COMPILED_BACKENDS:
        got = run_numeric(base.copy(), num_steps=num_steps, backend=backend)
        _assert_identical(ref, got, (kernel, backend, seed))


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
    num_tiles=st.integers(min_value=1, max_value=6),
    sorted_labels=st.lists(st.booleans(), min_size=3, max_size=3),
    num_steps=st.integers(min_value=1, max_value=3),
)
def test_tiled_backends_bit_identical_property(
    kernel, num_nodes, num_inter, seed, num_tiles, sorted_labels, num_steps
):
    """The tiled property: random per-loop tile labels make the schedule
    (sorted labels give a loop in range form, shuffled ones index form),
    and every tier, guarded or not, reproduces the oracle's tile run bit
    for bit."""
    base = _random_data(kernel, num_nodes, num_inter, seed)
    rng = np.random.default_rng(seed)
    labels = []
    for extent, ascending in zip(base.loop_sizes(), sorted_labels):
        loop_tiles = rng.integers(0, num_tiles, extent)
        labels.append(np.sort(loop_tiles) if ascending else loop_tiles)
    schedule = TileSchedule.from_tiling(labels, num_tiles)
    ref = run_oracle(base.copy(), schedule, num_steps=num_steps)
    for backend in TIERS:
        for sanitize in (False, True):
            got = run_numeric_wavefront(
                base.copy(), schedule, None, num_steps=num_steps,
                backend=backend, sanitize=sanitize,
            )
            _assert_identical(ref, got, (kernel, backend, sanitize, seed))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_run_numeric_dispatch_identity(kernel, backend):
    base = make_kernel_data(kernel, generate_dataset("mol1", scale=96))
    ref = run_oracle(base.copy(), num_steps=3)
    got = run_numeric(base.copy(), num_steps=3, backend=backend)
    _assert_identical(ref, got, (kernel, backend))


def _tiled_case(kernel, dataset, pack=False):
    machine = machine_by_name("pentium4")
    data = make_kernel_data(kernel, generate_dataset(dataset, scale=128))
    steps = [
        CPackStep(),
        LexGroupStep(),
        FullSparseTilingStep(fst_seed_block(data, machine)),
    ] + ([TilePackStep()] if pack else [])
    result = ComposedInspector(steps).run(data)
    d = result.transformed
    waves = tile_wavefronts(result.tiling, dependence_edges(d))
    return d, result.tiling.schedule(), waves


@pytest.mark.parametrize(
    "kernel,dataset",
    [("moldyn", "mol1"), ("irreg", "foil"), ("nbf", "foil")],
)
@pytest.mark.parametrize("backend", TIERS)
def test_wavefront_executor_identity(kernel, dataset, backend):
    """The tiled executor: same tile/phase structure, same fixed commit
    order (ascending tile id), bit-identical to the oracle's tile run on
    every tier — and a wavefront grouping, still accepted, changes
    nothing."""
    d, schedule, waves = _tiled_case(kernel, dataset)
    ref = run_oracle(d.copy(), schedule, num_steps=3)
    ref_serial = run_oracle(d.copy(), schedule, num_steps=2)
    got = run_numeric_wavefront(
        d.copy(), schedule, waves, num_steps=3, backend=backend
    )
    _assert_identical(ref, got, (kernel, backend, "waves"))
    got_serial = run_numeric_wavefront(
        d.copy(), schedule, None, num_steps=2, backend=backend
    )
    _assert_identical(ref_serial, got_serial, (kernel, backend, "serial"))


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
@pytest.mark.parametrize(
    "kernel,dataset",
    [("moldyn", "mol1"), ("irreg", "foil"), ("nbf", "foil")],
)
@pytest.mark.parametrize(
    "scheduler,num_threads", [("wave", None), ("dynamic", 1), ("dynamic", 2)]
)
@pytest.mark.parametrize("sanitize", [False, True])
def test_range_form_and_index_form_are_bit_identical(
    kernel, dataset, scheduler, num_threads, sanitize
):
    """One schedule, both C loop forms: the marshalled object runs its
    tile-packed loops as ranges (``iters == NULL``), its list form runs
    every loop through an index array — same bits as the oracle's tile
    run either way, guarded or not, and whatever the (selecting
    nothing) ``waves`` / ``scheduler`` / ``num_threads`` say."""
    d, schedule, waves = _tiled_case(kernel, dataset, pack=True)
    assert any(schedule.is_range)
    as_lists = [list(tile) for tile in schedule]
    ref = run_oracle(d.copy(), schedule, num_steps=3)
    for form, tiles in (("range", schedule), ("index", as_lists)):
        got = run_numeric_wavefront(
            d.copy(), tiles, waves, num_steps=3, backend="c",
            scheduler=scheduler, num_threads=num_threads, sanitize=sanitize,
        )
        _assert_identical(
            ref, got, (kernel, scheduler, num_threads, sanitize, form)
        )


@pytest.mark.parametrize(
    "kernel,dataset",
    [("moldyn", "mol1"), ("irreg", "foil"), ("nbf", "foil")],
)
@pytest.mark.parametrize("backend", ["library", "numpy"])
@pytest.mark.parametrize("sanitize", [False, True])
def test_python_tiers_slice_range_form_loops_bit_identically(
    kernel, dataset, backend, sanitize
):
    """The Python tile driver hands a range-form loop's tile to its
    phase as a ``slice``, an index-form loop's as its iteration array:
    the marshalled schedule and its list form give the oracle's bits."""
    d, schedule, waves = _tiled_case(kernel, dataset, pack=True)
    assert any(schedule.is_range)
    ref = run_oracle(d.copy(), schedule, num_steps=3)
    for tiles in (schedule, [list(tile) for tile in schedule]):
        got = run_numeric_wavefront(
            d.copy(), tiles, waves, num_steps=3, backend=backend,
            sanitize=sanitize,
        )
        _assert_identical(ref, got, (kernel, backend, sanitize))


@pytest.mark.parametrize(
    "spec_path", sorted(PLAN_DIR.glob("*.json")), ids=lambda p: p.stem
)
@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_every_example_plan_spec_identity(spec_path, backend):
    """Each shipped plan spec, bound and executed: the transformed data
    (remapped arrays + adjusted index arrays) produce bit-identical
    results under every backend."""
    plan = load_plan_spec(str(spec_path))
    data = make_kernel_data(
        plan.kernel.name, generate_dataset("mol1", scale=96)
    )
    bound = plan.bind(data)
    d = bound.transformed
    ref = run_oracle(d.copy(), num_steps=3)
    got = run_numeric(d.copy(), num_steps=3, backend=backend)
    _assert_identical(ref, got, (spec_path.stem, backend))


@pytest.mark.parametrize("kernel", KERNELS)
def test_no_compiler_fallback_is_bit_identical(kernel, monkeypatch):
    """Requesting the C backend on a toolchain-less machine must run the
    numpy backend — same bits, one warning, never an error."""
    monkeypatch.setattr(toolchain, "find_compiler", lambda: None)
    reset_fallback_announcements()
    base = make_kernel_data(kernel, generate_dataset("mol1", scale=64))
    ref = run_oracle(base.copy(), num_steps=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = run_numeric(base.copy(), num_steps=2, backend="c")
        run_numeric(base.copy(), num_steps=2, backend="c")  # no re-warn
    _assert_identical(ref, got, (kernel, "fallback"))
    fallback = [
        w for w in caught if issubclass(w.category, BackendFallbackWarning)
    ]
    assert len(fallback) == 1
    reset_fallback_announcements()


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_warm_artifact_bind_is_bit_identical(tmp_path):
    """A .so loaded from the artifact cache behaves exactly like the one
    produced by the cold compile."""
    base = make_kernel_data("moldyn", generate_dataset("mol1", scale=64))
    cold = compile_executor(
        "moldyn", backend="c", cache_dir=tmp_path, memo=False
    )
    warm = compile_executor(
        "moldyn", backend="c", cache_dir=tmp_path, memo=False
    )
    assert not cold.from_cache and warm.from_cache
    a, b = base.copy(), base.copy()
    cold.run(a.arrays, a.left, a.right, num_steps=3)
    warm.run(b.arrays, b.left, b.right, num_steps=3)
    _assert_identical(a, b, "warm-vs-cold")
