"""Extension experiment: the Section-4 parallelism encodings, quantified.

The paper describes (without measuring) two parallelism products of the
framework: run-time partial parallelization (wavefront schedules over the
iteration dependences) and coarser-grained parallelism between sparse
tiles.  This bench quantifies both on the benchmarks: available
parallelism per wavefront and the tile-graph critical path.
"""

import numpy as np

from benchmarks.conftest import save_and_print
from repro.cachesim.machines import machine_by_name
from repro.eval.compositions import fst_seed_block
from repro.kernels import generate_dataset, make_kernel_data
from repro.runtime.inspector import (
    ComposedInspector,
    CPackStep,
    FullSparseTilingStep,
    LexGroupStep,
    dependence_edges,
)
from repro.transforms import tile_wavefronts, wavefront_schedule


def run_experiment():
    rows = []
    machine = machine_by_name("pentium4")
    for kernel, dataset in (("moldyn", "mol1"), ("irreg", "foil")):
        data = make_kernel_data(kernel, generate_dataset(dataset, scale=64))

        # (a) iteration-level wavefronts of the cross-loop dependences
        # (node-loop iteration -> interaction iteration via left/right).
        j = np.arange(data.num_inter, dtype=np.int64)
        src = np.concatenate([data.left, data.right])
        dst = np.concatenate([j, j]) + data.num_nodes  # offset j iterations
        sched = wavefront_schedule(
            data.num_nodes + data.num_inter, src, dst
        )

        # (b) tile-level wavefronts after sparse tiling.
        steps = [
            CPackStep(),
            LexGroupStep(),
            FullSparseTilingStep(fst_seed_block(data, machine)),
        ]
        result = ComposedInspector(steps).run(data)
        tile_sched = tile_wavefronts(
            result.tiling, dependence_edges(result.transformed)
        )

        rows.append(
            {
                "kernel": kernel,
                "dataset": dataset,
                "iteration_waves": sched.num_waves,
                "iteration_avg_par": sched.average_parallelism,
                "tiles": result.tiling.num_tiles,
                "tile_waves": tile_sched.num_waves,
                "tile_avg_par": tile_sched.average_parallelism,
            }
        )
    return rows


def test_ext_parallelism(benchmark, results_dir):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    lines = ["Extension: run-time parallelism (Section 4 encodings)"]
    for r in rows:
        lines.append(
            f"  {r['kernel']}/{r['dataset']}: iteration wavefronts="
            f"{r['iteration_waves']} (avg par {r['iteration_avg_par']:.0f}); "
            f"tiles={r['tiles']} in {r['tile_waves']} waves "
            f"(avg par {r['tile_avg_par']:.2f})"
        )
    save_and_print(results_dir, "ext_parallelism", "\n".join(lines))

    for r in rows:
        # The cross-loop dependence graph is two levels deep (node sweep
        # feeds interactions), so partial parallelization exposes massive
        # parallelism within each wave...
        assert r["iteration_waves"] == 2
        assert r["iteration_avg_par"] > 1000
        # ...while tiles give coarser parallel units.
        assert r["tile_waves"] <= r["tiles"]
        assert r["tile_avg_par"] >= 1.0
