#!/usr/bin/env python
"""Sparse tiling where it was born: Gauss--Seidel across sweeps.

The paper generalized sparse tiling beyond Gauss--Seidel; this example
runs the original: RCM renumbering (the data reordering GS compositions
start from), a block seed partitioning of the middle sweep, tile growth
backward and forward through the sweeps, and a tiled execution that is
**bit-identical** to sequential Gauss--Seidel while keeping each tile's
band cache-resident through all sweeps.

Also demonstrates the Section-4 parallelism encoding: wavefronts of the
inter-tile dependence graph (independent tiles "map to the same tile
number").
"""

import numpy as np

from repro.cachesim import machine_by_name, simulate_cost
from repro.kernels import generate_dataset
from repro.kernels.gauss_seidel import (
    GaussSeidelData,
    emit_gs_trace,
    make_gauss_seidel_data,
    run_sweeps,
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


def main() -> None:
    sweeps = 4
    ds = generate_dataset("auto", scale=32)
    gs = make_gauss_seidel_data(ds)
    print(f"Gauss-Seidel on {ds} for {sweeps} sweeps")

    # Numeric correctness at a smaller size (pure-Python GS is slow).
    small = generate_dataset("foil", scale=256)
    gs_small = make_gauss_seidel_data(small)
    tiling_small = full_sparse_tiling_sweeps(
        gs_small.graph, sweeps, block_partition(gs_small.num_nodes, 64)
    )
    seq = run_sweeps(gs_small.copy(), sweeps)
    tiled = run_sweeps(gs_small.copy(), sweeps, tiling_small)
    assert np.array_equal(seq.x, tiled.x)
    print("tiled GS is bit-identical to sequential GS: OK")

    # Compose: RCM data reordering, then sweep tiling.
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
        graph, sweeps, block_partition(ds.num_nodes, 512)
    )
    check_tiling(
        tiling, [ds.num_nodes] * sweeps, sweep_edges(graph, sweeps), "sweeps"
    )
    print(f"{tiling.num_tiles} tiles grown across {sweeps} sweeps (legal)")

    base = emit_gs_trace(gs, sweeps)
    rcm = emit_gs_trace(renumbered, sweeps)
    fst = emit_gs_trace(renumbered, sweeps, tiling)
    for name in ("power3", "pentium4"):
        machine = machine_by_name(name)
        b = simulate_cost(base, machine).cycles
        r = simulate_cost(rcm, machine).cycles
        f = simulate_cost(fst, machine).cycles
        print(
            f"  {name:9s} baseline=1.000  rcm={r / b:.3f}  "
            f"rcm+sweep-fst={f / b:.3f}"
        )

    # Inter-tile parallelism: sweep tiles form a chain-like DAG; the
    # between-loop tiling of moldyn-style kernels is where tile
    # wavefronts shine (see tests), but the API is the same.
    print(
        "tile dependence wavefronts (Section 4 encoding) available via "
        "repro.transforms.tile_wavefronts"
    )


if __name__ == "__main__":
    main()
