"""The tiled numeric executor: legality and bit-identity.

Execution is *deterministic*: reduction commits apply in ascending tile
order whatever ``parallel`` / ``num_threads`` / a wavefront say (they
select nothing), so every such call is bit-identical to a plain one —
and all agree (up to floating-point reassociation) with the untiled
reference executor.
"""

import numpy as np
import pytest

from repro.cachesim.machines import machine_by_name
from repro.eval.compositions import fst_seed_block
from repro.kernels import generate_dataset, make_kernel_data
from repro.runtime.executor import run_numeric, run_numeric_wavefront
from repro.runtime.inspector import (
    ComposedInspector,
    CPackStep,
    FullSparseTilingStep,
    LexGroupStep,
    dependence_edges,
)
from repro.transforms import tile_wavefronts


def _tiled_case(kernel: str, dataset: str):
    machine = machine_by_name("pentium4")
    data = make_kernel_data(kernel, generate_dataset(dataset, scale=128))
    steps = [
        CPackStep(),
        LexGroupStep(),
        FullSparseTilingStep(fst_seed_block(data, machine)),
    ]
    result = ComposedInspector(steps).run(data)
    d = result.transformed
    waves = tile_wavefronts(result.tiling, dependence_edges(d))
    return d, result.tiling.schedule(), waves


@pytest.mark.parametrize(
    "kernel,dataset",
    [("moldyn", "mol1"), ("irreg", "foil"), ("nbf", "foil")],
)
def test_parallel_bit_identical_to_serial(kernel, dataset):
    d, schedule, waves = _tiled_case(kernel, dataset)
    serial = run_numeric_wavefront(
        d.copy(), schedule, waves, num_steps=3, parallel=False
    )
    threaded = run_numeric_wavefront(
        d.copy(), schedule, waves, num_steps=3, parallel=True, num_threads=4
    )
    for name in serial.arrays:
        assert np.array_equal(serial.arrays[name], threaded.arrays[name]), name


@pytest.mark.parametrize("kernel,dataset", [("moldyn", "mol1")])
def test_wavefront_matches_untiled_reference(kernel, dataset):
    d, schedule, waves = _tiled_case(kernel, dataset)
    tiled = run_numeric_wavefront(d.copy(), schedule, waves, num_steps=2)
    ref = run_numeric(d.copy(), num_steps=2)
    for name in tiled.arrays:
        np.testing.assert_allclose(
            tiled.arrays[name], ref.arrays[name], rtol=1e-9, atol=1e-12
        )


def test_trivial_tiling_is_exactly_the_reference():
    """One tile holding every iteration reproduces ``run_numeric``
    bit for bit (same operations over the same full index arrays)."""
    data = make_kernel_data("moldyn", generate_dataset("mol1", scale=256))
    schedule = [
        [np.arange(size, dtype=np.int64) for size in data.loop_sizes()]
    ]
    tiled = run_numeric_wavefront(data.copy(), schedule, None, num_steps=2)
    ref = run_numeric(data.copy(), num_steps=2)
    for name in tiled.arrays:
        assert np.array_equal(tiled.arrays[name], ref.arrays[name]), name


def test_schedule_shape_validation():
    data = make_kernel_data("moldyn", generate_dataset("mol1", scale=256))
    with pytest.raises(ValueError, match="must cover 3 loops"):
        run_numeric_wavefront(
            data.copy(), [[np.arange(4, dtype=np.int64)]], None
        )
