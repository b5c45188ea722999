"""The dependence-counter scheduler's contracts.

Three layers of guarantee, each tested directly:

* **bit identity** (property-based) — on random kernel instances, the
  dynamic executor produces byte-for-byte the level-synchronous wave
  executor's arrays at every thread count;
* **schedule protocol** — what a dynamic call runs on the Python tiers
  (the wave driver over the DAG's own wave grouping): commits run
  serially in ``dag.order``, each tile's phases run in gather → commit
  → post order, and no tile gathers before every DAG predecessor
  posted.  (The C tier's counter pool cannot be observed from outside;
  the same three properties are what keep its 2/4-thread runs
  ``tobytes``-equal in ``tests/codegen/test_compiled_dynamic.py``.);
* **the IRV006 gate** — cyclic or mis-counted counter graphs are named
  by the verifier and refused before any tile runs instead of
  deadlocking.
"""

import dataclasses
import threading

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis import irverify as iv
from repro.errors import LegalityError
from repro.kernels import make_kernel_data
from repro.kernels.executors import KernelPhase
from repro.kernels.datasets import Dataset
from repro.lowering import schedule as sched
from repro.lowering.executor import compile_executor
from repro.lowering.schedule import (
    counter_schedule,
    ensure_runnable,
    run_wave_phases,
    static_levels,
    tile_dag,
    tile_dag_from_tiling,
    tile_dag_from_waves,
)
from repro.runtime.inspector import (
    ComposedInspector,
    CPackStep,
    FullSparseTilingStep,
    LexGroupStep,
    dependence_edges,
)
from repro.transforms import tile_wavefronts

KERNELS = ("moldyn", "irreg", "nbf")


def _tiled(data, seed_block):
    """Tile a kernel instance and derive the edge-accurate counter DAG."""
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
        groups = waves.groups()
        wave_ex = compile_executor(
            data.kernel_name, backend="library", tiled=True
        )
        dyn_ex = compile_executor(
            data.kernel_name,
            backend="library",
            tiled=True,
            scheduler="dynamic",
        )
        ref = {k: v.copy() for k, v in d.arrays.items()}
        wave_ex.run(ref, d.left, d.right, schedule, groups, num_steps=3)
        out = {k: v.copy() for k, v in d.arrays.items()}
        dyn_ex.run(
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
                f"{data.kernel_name}/{name} diverged at "
                f"{num_threads} thread(s)"
            )

    @settings(max_examples=10, deadline=None)
    @given(data=kernel_instances(), num_threads=st.sampled_from([2, 4]))
    def test_barrier_dag_fallback_matches(self, data, num_threads):
        """Without real edges the engine runs the conservative
        wave-barrier DAG — still bit-identical."""
        d, schedule, waves, _ = _tiled(data, 4)
        groups = waves.groups()
        wave_ex = compile_executor(
            data.kernel_name, backend="library", tiled=True
        )
        dyn_ex = compile_executor(
            data.kernel_name,
            backend="library",
            tiled=True,
            scheduler="dynamic",
        )
        ref = {k: v.copy() for k, v in d.arrays.items()}
        wave_ex.run(ref, d.left, d.right, schedule, groups, num_steps=2)
        out = {k: v.copy() for k, v in d.arrays.items()}
        dyn_ex.run(  # dag=None: derived from the wave groups
            out,
            d.left,
            d.right,
            schedule,
            groups,
            num_steps=2,
            num_threads=num_threads,
        )
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes(), name


def _record_run(dag, num_threads, num_steps=1):
    """Run a recording phase table (node / interaction / node, one
    iteration of each per tile) the way a dynamic bind of a Python tier
    does; returns the event log."""
    events = []
    lock = threading.Lock()

    def record(name, tiles):
        with lock:
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
    tiles = np.arange(dag.num_tiles, dtype=np.int64)
    schedule = [(tiles[t:t + 1],) * 3 for t in range(dag.num_tiles)]
    dag, groups = counter_schedule(dag, None, dag.num_tiles)
    run_wave_phases(
        phases, {}, tiles, tiles, schedule, groups,
        num_steps=num_steps, num_threads=num_threads,
    )
    return events


def _random_dag(rng, num_tiles=24, num_edges=40):
    """A random acyclic tile graph (edges point id-upward)."""
    src = rng.integers(0, num_tiles - 1, num_edges).astype(np.int64)
    width = num_tiles - 1 - src
    dst = src + 1 + (rng.integers(0, 1 << 30, num_edges) % width)
    return tile_dag(num_tiles, src, dst.astype(np.int64))


class TestEngineProtocol:
    """The class name predates the deletion of the Python work-stealing
    engine; the protocol it pins is the surviving drivers'."""

    @pytest.mark.parametrize("num_threads", [2, 4])
    def test_commits_replay_order_exactly(self, num_threads):
        rng = np.random.default_rng(7)
        dag = _random_dag(rng)
        steps = 3
        events = _record_run(dag, num_threads, num_steps=steps)
        commits = [t for name, t in events if name == "commit"]
        assert commits == list(dag.order) * steps

    @pytest.mark.parametrize("num_threads", [1, 2, 4])
    def test_stage_order_and_dependences(self, num_threads):
        rng = np.random.default_rng(11)
        dag = _random_dag(rng)
        events = _record_run(dag, num_threads)
        when = {}
        for i, (name, tile) in enumerate(events):
            when[(name, tile)] = i
        for t in range(dag.num_tiles):
            assert (
                when[("gather", t)]
                < when[("commit", t)]
                < when[("post", t)]
            )
        for u in range(dag.num_tiles):
            for v in dag.successors(u):
                assert when[("post", u)] < when[("gather", int(v))], (
                    f"tile {v} gathered before predecessor {u} posted"
                )

    def test_every_stage_runs_exactly_once_per_step(self):
        rng = np.random.default_rng(13)
        dag = _random_dag(rng)
        events = _record_run(dag, 4, num_steps=2)
        assert len(events) == 3 * dag.num_tiles * 2
        for name in ("gather", "commit", "post"):
            tiles = sorted(t for n, t in events if n == name)
            assert tiles == sorted(list(range(dag.num_tiles)) * 2)


@pytest.fixture
def cyclic_dag():
    """A deliberately cyclic counter graph (0 -> 1 -> 2 -> 0)."""
    dag = tile_dag(3, np.array([0, 1, 2]), np.array([1, 2, 0]))
    assert dag.wave is None  # the constructor records that leveling failed
    return dag


class TestIRV006Gate:
    def test_verifier_names_the_cycle(self, cyclic_dag):
        diags = iv.verify_counter_dag(cyclic_dag)
        assert diags, "cyclic counter graph passed the verifier"
        assert all(d.code == iv.IRV_COUNTER_DAG == "IRV006" for d in diags)
        assert any("cyclic" in d.message for d in diags)

    def test_engine_refuses_to_run_it(self, cyclic_dag):
        with pytest.raises(LegalityError, match="IRV006"):
            counter_schedule(cyclic_dag, None, cyclic_dag.num_tiles)

    def test_static_levels_refuses_it(self, cyclic_dag):
        bare = dataclasses.replace(cyclic_dag, wave=None)
        with pytest.raises(LegalityError, match="cyclic"):
            static_levels(bare)

    def test_miscounted_indegree_is_flagged(self):
        good = tile_dag(3, np.array([0, 1]), np.array([1, 2]))
        under = dataclasses.replace(
            good, indegree=np.array([0, 0, 1], dtype=np.int64)
        )
        over = dataclasses.replace(
            good, indegree=np.array([0, 2, 1], dtype=np.int64)
        )
        assert any(
            "under-counted" in d.message
            for d in iv.verify_counter_dag(under)
        )
        assert any(
            "over-counted" in d.message for d in iv.verify_counter_dag(over)
        )
        with pytest.raises(LegalityError):
            ensure_runnable(under)

    def test_bad_commit_order_is_flagged(self):
        good = tile_dag(3, np.array([0, 1]), np.array([1, 2]))
        scrambled = dataclasses.replace(
            good, order=np.array([2, 1, 0], dtype=np.int64)
        )
        assert any(
            "commit order violates" in d.message
            for d in iv.verify_counter_dag(scrambled)
        )


class TestDagHelpers:
    def test_ensure_runnable_memoizes_per_instance(self, monkeypatch):
        dag = tile_dag(4, np.array([0, 1]), np.array([1, 2]))
        calls = {"n": 0}
        real = iv.verify_counter_dag

        def counting(d):
            calls["n"] += 1
            return real(d)

        monkeypatch.setattr(iv, "verify_counter_dag", counting)
        ensure_runnable(dag)
        ensure_runnable(dag)
        assert calls["n"] == 1

    def test_static_levels_recomputes_missing_waves(self):
        rng = np.random.default_rng(3)
        dag = _random_dag(rng)
        bare = dataclasses.replace(dag, wave=None)
        assert np.array_equal(static_levels(bare), dag.wave)

    def test_barrier_dag_shape(self):
        groups = [np.array([0, 2]), np.array([1, 3])]
        dag = tile_dag_from_waves(groups, 4)
        # Every wave-1 tile depends on every wave-0 tile.
        assert np.array_equal(dag.indegree, [0, 2, 0, 2])
        assert dag.num_edges == 4
        assert list(dag.order) == [0, 2, 1, 3]
        assert np.array_equal(dag.wave, [0, 1, 0, 1])

    def test_empty_dag_runs(self):
        dag, groups = counter_schedule(None, None, 0)
        assert dag.num_tiles == 0 and len(groups) == 0
        assert _record_run(dag, 4) == []

    def test_wave_grouping_splits_the_order_at_level_changes(self):
        rng = np.random.default_rng(5)
        dag = _random_dag(rng)
        _, groups = counter_schedule(dag, None, dag.num_tiles)
        assert np.array_equal(groups.flat, dag.order)
        assert [len(set(dag.wave[g])) for g in groups] == [1] * len(groups)
        assert len(groups) == dag.stats()["num_waves"]
        # Computed once per TileDAG, like the gate's verdict.
        assert counter_schedule(dag, None, dag.num_tiles)[1] is groups
        # A hand-built DAG without levels gets the same grouping.
        bare = dataclasses.replace(dag, wave=None)
        assert counter_schedule(bare, None, dag.num_tiles)[1] == groups

    def test_scheduler_report_shape(self):
        report = sched.scheduler_report()
        assert report["scheduler"] in sched.EXECUTOR_SCHEDULERS
        assert report["threads"] >= 1
        assert report["env"] == sched.SCHEDULER_ENV
