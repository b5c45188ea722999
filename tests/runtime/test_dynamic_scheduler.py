"""The tile driver's contracts, and the dynamic keywords that select
nothing.

Two layers of guarantee, each tested directly:

* **bit identity** (property-based) — on random kernel instances, a
  ``scheduler="dynamic"`` call with a wavefront, a counter DAG and any
  thread count produces byte-for-byte the oracle's ascending-tile fold:
  the keywords select nothing;
* **schedule protocol** — what :func:`~repro.lowering.schedule.
  run_tile_phases` runs over a schedule: commits run serially in
  ascending tile id, each tile's phases run in gather → commit → post
  order, and on a tile graph whose edges point id-upward (the
  atomic-tile condition) no tile gathers before every predecessor
  posted.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.kernels import make_kernel_data
from repro.kernels.datasets import Dataset
from repro.lowering.schedule import (
    KernelPhase,
    run_tile_phases,
    tile_dag_from_tiling,
)
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

KERNELS = ("moldyn", "irreg", "nbf")


def _tiled(data, seed_block):
    """Tile a kernel instance and derive its tile graph."""
    steps = [CPackStep(), LexGroupStep(), FullSparseTilingStep(seed_block)]
    result = ComposedInspector(steps).run(data)
    d = result.transformed
    edges = dependence_edges(d)
    waves = tile_wavefronts(result.tiling, edges)
    dag = tile_dag_from_tiling(result.tiling, edges, waves=waves)
    return d, result.tiling.schedule(), waves, dag


@st.composite
def kernel_instances(draw):
    kernel_name = draw(st.sampled_from(KERNELS))
    n = draw(st.integers(8, 48))
    m = draw(st.integers(4, 96))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    ds = Dataset(
        "prop", n,
        rng.integers(0, n, m).astype(np.int64),
        rng.integers(0, n, m).astype(np.int64),
    )
    return make_kernel_data(kernel_name, ds)


class TestBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        data=kernel_instances(),
        seed_block=st.integers(2, 10),
        num_threads=st.sampled_from([1, 2, 4]),
    )
    def test_dynamic_matches_level_sync(self, data, seed_block, num_threads):
        d, schedule, waves, dag = _tiled(data, seed_block)
        ref = run_oracle(d.copy(), schedule, num_steps=3)
        out = run_numeric_wavefront(
            d.copy(), schedule, waves, num_steps=3, scheduler="dynamic",
            dag=dag, num_threads=num_threads,
        )
        for name in ref.arrays:
            assert ref.arrays[name].tobytes() == out.arrays[name].tobytes(), (
                f"{data.kernel_name}/{name} diverged at "
                f"{num_threads} thread(s)"
            )

    @settings(max_examples=10, deadline=None)
    @given(data=kernel_instances(), num_threads=st.sampled_from([2, 4]))
    def test_barrier_dag_fallback_matches(self, data, num_threads):
        """Without a ``dag`` the dynamic call is the oracle's fold too."""
        d, schedule, waves, _ = _tiled(data, 4)
        ref = run_oracle(d.copy(), schedule, num_steps=2)
        out = run_numeric_wavefront(
            d.copy(), schedule, waves, num_steps=2, scheduler="dynamic",
            num_threads=num_threads,
        )
        for name in ref.arrays:
            assert (
                ref.arrays[name].tobytes() == out.arrays[name].tobytes()
            ), name


def _record_run(num_tiles, num_steps=1):
    """Run a recording phase table (node / interaction / node, one
    iteration of each per tile) under the tile driver; returns the
    event log."""
    events = []

    def record(name, tiles):
        events.extend((name, int(t)) for t in tiles)

    phases = [
        KernelPhase("nodes", apply=lambda arrays, it: record("gather", it)),
        KernelPhase(
            "inters",
            gather=lambda arrays, l, r: None,
            commit=lambda arrays, l, r, payload: record("commit", l),
        ),
        KernelPhase("nodes", apply=lambda arrays, it: record("post", it)),
    ]
    tiles = np.arange(num_tiles, dtype=np.int64)
    schedule = [(tiles[t:t + 1],) * 3 for t in range(num_tiles)]
    run_tile_phases(phases, {}, tiles, tiles, schedule, num_steps=num_steps)
    return events


def _random_edges(rng, num_tiles=24, num_edges=40):
    """A random acyclic tile graph (edges point id-upward)."""
    src = rng.integers(0, num_tiles - 1, num_edges).astype(np.int64)
    width = num_tiles - 1 - src
    dst = src + 1 + (rng.integers(0, 1 << 30, num_edges) % width)
    return src, dst.astype(np.int64), num_tiles


class TestEngineProtocol:
    """The parameter is the number of time steps: the protocol holds on
    every step, and step ``s + 1`` starts only after step ``s`` ended."""

    @pytest.mark.parametrize("num_steps", [2, 4])
    def test_commits_replay_order_exactly(self, num_steps):
        _, _, num_tiles = _random_edges(np.random.default_rng(7))
        events = _record_run(num_tiles, num_steps=num_steps)
        commits = [t for name, t in events if name == "commit"]
        assert commits == list(range(num_tiles)) * num_steps

    @pytest.mark.parametrize("num_steps", [1, 2, 4])
    def test_stage_order_and_dependences(self, num_steps):
        rng = np.random.default_rng(11)
        src, dst, num_tiles = _random_edges(rng)
        events = _record_run(num_tiles, num_steps=num_steps)
        per_step = 3 * num_tiles
        assert len(events) == per_step * num_steps
        for step in range(num_steps):
            when = {}
            for i, (name, tile) in enumerate(
                events[step * per_step:(step + 1) * per_step]
            ):
                when[(name, tile)] = i
            for t in range(num_tiles):
                assert (
                    when[("gather", t)]
                    < when[("commit", t)]
                    < when[("post", t)]
                ), f"tile {t} out of stage order at step {step}"
            for u, v in zip(src, dst):
                assert when[("post", int(u))] < when[("gather", int(v))], (
                    f"tile {v} gathered before predecessor {u} posted "
                    f"at step {step}"
                )

    def test_every_stage_runs_exactly_once_per_step(self):
        rng = np.random.default_rng(13)
        _, _, num_tiles = _random_edges(rng)
        events = _record_run(num_tiles, num_steps=2)
        assert len(events) == 3 * num_tiles * 2
        for name in ("gather", "commit", "post"):
            tiles = sorted(t for n, t in events if n == name)
            assert tiles == sorted(list(range(num_tiles)) * 2)
