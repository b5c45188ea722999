"""Extension experiment: full sparse tiling across sweeps (Gauss--Seidel).

Not a figure of this paper, but the result it builds on (Strout et al.,
ICCS'01 — cited as the origin of full sparse tiling): composing a data
reordering (RCM) with a sweep-crossing sparse tiling improves Gauss--
Seidel locality, and the tiled execution remains exactly sequential-
equivalent.
"""

import numpy as np

from benchmarks.conftest import save_and_print
from repro.cachesim import machine_by_name, simulate_cost
from repro.kernels import generate_dataset
from repro.kernels.gauss_seidel import (
    GaussSeidelData,
    emit_gs_trace,
    make_gauss_seidel_data,
)
from repro.transforms import (
    AccessMap,
    CSRGraph,
    block_partition,
    check_tiling,
    full_sparse_tiling_sweeps,
    reverse_cuthill_mckee,
    sweep_edges,
)

SWEEPS = 4


def run_experiment():
    rows = []
    for dataset_name, part in (("foil", 512), ("auto", 512)):
        ds = generate_dataset(dataset_name, scale=32)
        gs = make_gauss_seidel_data(ds)
        sigma = reverse_cuthill_mckee(
            AccessMap.from_columns([ds.left, ds.right], ds.num_nodes)
        )
        graph = CSRGraph.from_edges(
            ds.num_nodes, sigma.array[ds.left], sigma.array[ds.right]
        )
        renumbered = GaussSeidelData(
            graph, sigma.apply_to_data(gs.x), sigma.apply_to_data(gs.b)
        )
        tiling = full_sparse_tiling_sweeps(
            graph, SWEEPS, block_partition(ds.num_nodes, part)
        )
        check_tiling(
            tiling,
            [ds.num_nodes] * SWEEPS,
            sweep_edges(graph, SWEEPS),
            "gauss-seidel",
        )
        base = emit_gs_trace(gs, SWEEPS)
        rcm = emit_gs_trace(renumbered, SWEEPS)
        fst = emit_gs_trace(renumbered, SWEEPS, tiling)
        for machine_name in ("power3", "pentium4"):
            machine = machine_by_name(machine_name)
            b = simulate_cost(base, machine).cycles
            rows.append(
                {
                    "dataset": dataset_name,
                    "machine": machine_name,
                    "rcm": simulate_cost(rcm, machine).cycles / b,
                    "rcm_fst": simulate_cost(fst, machine).cycles / b,
                    "tiles": tiling.num_tiles,
                }
            )
    return rows


def test_ext_gauss_seidel_sweep_tiling(benchmark, results_dir):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    lines = ["Extension: Gauss-Seidel, normalized executor cost (baseline=1.0)"]
    for r in rows:
        lines.append(
            f"  {r['dataset']}/{r['machine']:9s} rcm={r['rcm']:.3f} "
            f"rcm+sweep-fst={r['rcm_fst']:.3f} ({r['tiles']} tiles)"
        )
    save_and_print(results_dir, "ext_gauss_seidel", "\n".join(lines))

    for r in rows:
        # RCM is a large win on the scrambled inputs...
        assert r["rcm"] < 0.7, r
        # ...and sweep tiling never costs more than a sliver on top, with
        # a clear gain on the dataset that overflows the Pentium4's L2.
        assert r["rcm_fst"] < r["rcm"] * 1.1, r
    auto_p4 = next(
        r for r in rows if r["dataset"] == "auto" and r["machine"] == "pentium4"
    )
    assert auto_p4["rcm_fst"] < auto_p4["rcm"] * 0.8
