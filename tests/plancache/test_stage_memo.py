"""The stage memo: a cold bind replays the stages an earlier bind ran.

Stage ``k``'s inspector output depends only on the dataset, the failure
policy and steps ``0..k``, so binds sharing a step prefix on one cache
run each prefix's inspectors once.  A replayed stage runs the same
mechanics as a cold one, so every bind must equal a no-cache cold bind
in everything it produced.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.kernels.specs import kernel_by_name
from repro.plancache import PlanCache
from repro.plancache import fingerprint as fp
from repro.runtime import CompositionPlan
from repro.runtime.faults import inject
from repro.runtime.inspector import ComposedInspector
from repro.runtime.report import PipelineReport, StageRecord
from repro.runtime.steps import (
    CPackStep,
    DataReorderStep,
    FullSparseTilingStep,
    LexGroupStep,
    TilePackStep,
    registered,
)
from repro.service.request import result_digests
from repro.transforms.base import ReorderingFunction

from tests.incremental.conftest import stage_function_bytes
from tests.plancache.conftest import tiny_data

pytestmark = pytest.mark.plancache

KERNELS = ("moldyn", "nbf", "irreg")


def produced(result):
    """Everything a bind produced that a replay must reproduce."""
    tiling = result.tiling
    return {
        "digests": result_digests(result),
        "overhead": list(result.overhead.items()),
        "data_moves": result.data_moves,
        "tiling": None
        if tiling is None
        else (tiling.num_tiles, [t.tobytes() for t in tiling.tiles]),
        "stage_functions": stage_function_bytes(result),
        "stages": [(s.name, s.status, s.touches) for s in result.report.stages],
    }


def bind(steps, data, cache=None, **options):
    plan = CompositionPlan(kernel_by_name(data.kernel_name), steps, **options)
    return plan.bind(data, cache=cache)


def cpack_lg():
    return [CPackStep(), LexGroupStep()]


def cpack_lg_fst():
    return cpack_lg() + [FullSparseTilingStep(8), TilePackStep()]


class OpaqueStep(DataReorderStep):
    """A third-party step declaring no traits: it may read the payload."""

    name = "opaque"
    symbol_prefix = "op"

    def reorder(self, state, counter):
        n = state.data.num_nodes
        counter["touches"] = n
        return ReorderingFunction(
            f"op{state.current_index}", np.roll(np.arange(n), 1)
        )


# ---------------------------------------------------------------------------
# The differential property


def _step(draw, cls, coords):
    """One instance of a registered step class with drawn parameters."""
    kwargs = {}
    for param in cls.params:
        if param.type is int:
            kwargs[param.name] = draw(st.integers(1, 24))
        elif param.type is bool:
            kwargs[param.name] = draw(st.booleans())
    args = (coords,) if "coords" in cls.traits.reads else ()
    return lambda: cls(*args, **kwargs)


def _legal(makers):
    """Drop a step that reads a tiling no earlier step wrote."""
    out, tiled = [], False
    for make in makers:
        traits = make().traits
        if "tiling" in traits.reads and not tiled:
            continue
        tiled = tiled or "tiling" in traits.writes
        out.append(make)
    return out


@st.composite
def prefix_families(draw):
    """Compositions cut from one trunk plus a drawn tail, each under both
    remap policies, in a drawn bind order."""
    kernel = draw(st.sampled_from(KERNELS))
    data = tiny_data(kernel, seed=draw(st.integers(0, 10_000)))
    coords = np.random.default_rng(0).random((data.num_nodes, 2))
    classes = st.sampled_from(registered())
    trunk = [
        _step(draw, cls, coords)
        for cls in draw(st.lists(classes, min_size=1, max_size=4))
    ]
    compositions = []
    for _ in range(draw(st.integers(2, 4))):
        cut = draw(st.integers(0, len(trunk)))
        tail = [
            _step(draw, cls, coords)
            for cls in draw(st.lists(classes, max_size=2))
        ]
        compositions.append(_legal(trunk[:cut] + tail))
    binds = [
        (composition, remap)
        for composition in compositions
        for remap in ("once", "each")
    ]
    return data, draw(st.permutations(binds))


@settings(
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(prefix_families())
def test_every_bind_equals_a_cold_bind(family):
    data, binds = family
    cache = PlanCache(use_disk=False)
    seen = set()
    for composition, remap in binds:
        steps = [make() for make in composition]
        key = fp.inspector_fingerprint(steps, remap, "raise")
        if key in seen:
            continue  # a whole-bind hit, not a stage replay
        seen.add(key)
        try:
            cold = bind(steps, data, remap=remap)
        except ReproError as exc:
            with pytest.raises(type(exc)):
                bind([make() for make in composition], data, cache, remap=remap)
            continue
        warm = bind([make() for make in composition], data, cache, remap=remap)
        assert warm.report.cache == "stored"
        assert produced(warm) == produced(cold)
        assert warm.sigma_nodes.name == cold.sigma_nodes.name


# ---------------------------------------------------------------------------
# Replays, and what counts them


class TestReplay:
    def test_a_shared_prefix_is_replayed(self, moldyn_data):
        cache = PlanCache(use_disk=False)
        bind(cpack_lg(), moldyn_data, cache)
        result = bind(cpack_lg_fst(), moldyn_data, cache)
        assert [s.replayed for s in result.report.stages] == [
            True, True, False, False,
        ]
        assert produced(result) == produced(bind(cpack_lg_fst(), moldyn_data))

    def test_both_remap_policies_share_the_built_in_stages(self, moldyn_data):
        cache = PlanCache(use_disk=False)
        bind(cpack_lg_fst(), moldyn_data, cache, remap="once")
        each = bind(cpack_lg_fst(), moldyn_data, cache, remap="each")
        assert all(s.replayed for s in each.report.stages)
        cold = bind(cpack_lg_fst(), moldyn_data, remap="each")
        assert produced(each) == produced(cold)

    def test_whole_bind_counters_ignore_stage_lookups(self, moldyn_data):
        cache = PlanCache(use_disk=False)
        bind(cpack_lg(), moldyn_data, cache)
        bind(cpack_lg_fst(), moldyn_data, cache)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (0, 2, 2)
        assert stats.hit_rate == 0.0
        assert stats.stages_replayed == 2
        assert stats.stage_replays == {"cpack": 1, "lg": 1}
        assert stats.as_dict()["stages_replayed"] == 2
        assert "replayed: 2" in stats.describe()
        assert "stage cpack: 0 hits, 2 misses, 1 replayed" in stats.describe()

    def test_a_whole_bind_hit_replays_nothing(self, moldyn_data):
        cache = PlanCache(use_disk=False)
        bind(cpack_lg(), moldyn_data, cache)
        bind(cpack_lg_fst(), moldyn_data, cache)
        hit = bind(cpack_lg_fst(), moldyn_data, cache)
        assert hit.report.cache == "hit"
        assert not any(s.replayed for s in hit.report.stages)
        assert cache.stats.stages_replayed == 2

    def test_the_record_carries_the_flag(self):
        record = StageRecord(1, "lg", "ok", touches=7, replayed=True)
        assert StageRecord.from_dict(record.to_dict()) == record
        assert StageRecord.from_dict({
            "index": 0, "name": "cpack", "status": "ok",
        }).replayed is False
        report = PipelineReport(stages=[record])
        assert "replayed" in report.describe()
        assert "replayed" not in str(StageRecord(0, "cpack", "ok"))

    def test_clear_drops_the_stage_memo(self, moldyn_data):
        cache = PlanCache(use_disk=False)
        bind(cpack_lg(), moldyn_data, cache)
        cache.clear()
        result = bind(cpack_lg_fst(), moldyn_data, cache)
        assert not any(s.replayed for s in result.report.stages)
        assert cache.stats.stages_replayed == 0

    def test_the_delta_engine_never_consults_the_memo(self, moldyn_data):
        from tests.incremental.conftest import small_delta

        cache = PlanCache(use_disk=False)
        plan = CompositionPlan(kernel_by_name("moldyn"), cpack_lg_fst())
        plan.bind(moldyn_data, cache=cache)
        child = plan.rebind(moldyn_data, small_delta(moldyn_data), cache=cache)
        assert child.delta_info["mode"] == "patched"
        assert not any(s.replayed for s in child.report.stages)
        assert cache.stats.stages_replayed == 0


# ---------------------------------------------------------------------------
# The key


class TestKey:
    def test_the_chain_has_one_key_per_stage(self, moldyn_data):
        keys = fp.stage_fingerprints(cpack_lg_fst(), moldyn_data, "once", "raise")
        assert len(set(keys)) == 4
        # A prefix of a composition has a prefix of its keys.
        assert fp.stage_fingerprints(
            cpack_lg(), moldyn_data, "once", "raise"
        ) == keys[:2]
        # Parameters, dataset and failure policy all move a key.
        other = cpack_lg() + [FullSparseTilingStep(9), TilePackStep()]
        assert fp.stage_fingerprints(other, moldyn_data, "once", "raise")[2:] != keys[2:]
        assert fp.stage_fingerprints(
            cpack_lg_fst(), tiny_data("moldyn", seed=1), "once", "raise"
        )[0] != keys[0]
        assert fp.stage_fingerprints(
            cpack_lg_fst(), moldyn_data, "once", "skip"
        )[0] != keys[0]

    def test_built_in_steps_leave_remap_out(self, moldyn_data):
        for cls in registered():
            assert "payload" not in cls.traits.reads, cls.name
        assert fp.stage_fingerprints(
            cpack_lg_fst(), moldyn_data, "once", "raise"
        ) == fp.stage_fingerprints(cpack_lg_fst(), moldyn_data, "each", "raise")

    def test_a_conservative_step_is_keyed_by_remap(self, moldyn_data):
        steps = [CPackStep(), OpaqueStep(), LexGroupStep()]
        once = fp.stage_fingerprints(steps, moldyn_data, "once", "raise")
        each = fp.stage_fingerprints(steps, moldyn_data, "each", "raise")
        assert once[0] == each[0]
        assert once[1] != each[1] and once[2] != each[2]

        cache = PlanCache(use_disk=False)
        bind(steps, moldyn_data, cache, remap="once")
        result = bind(
            [CPackStep(), OpaqueStep(), LexGroupStep()],
            moldyn_data, cache, remap="each",
        )
        assert [s.replayed for s in result.report.stages] == [True, False, False]
        cold = bind([CPackStep(), OpaqueStep(), LexGroupStep()], moldyn_data, remap="each")
        assert produced(result) == produced(cold)


# ---------------------------------------------------------------------------
# Where outputs live, and what may not reach them


class TestStorage:
    def test_the_disk_tier_gets_no_stage_artifacts(self, tmp_path, moldyn_data):
        directory = tmp_path / "plancache"
        cache = PlanCache(directory=directory)
        bind(cpack_lg(), moldyn_data, cache)
        bind(cpack_lg_fst(), moldyn_data, cache)
        assert cache.stats.stages_replayed == 2
        assert len(list(directory.rglob("*.npz"))) == cache.stats.stores == 2
        assert cache.disk.health()["entries"] == 2
        # A new process over the same directory has no stage memo.
        fresh = PlanCache(directory=directory)
        other = cpack_lg() + [FullSparseTilingStep(9)]
        result = bind(other, moldyn_data, fresh)
        assert not any(s.replayed for s in result.report.stages)

    def test_memo_arrays_are_read_only(self, moldyn_data):
        cache = PlanCache(use_disk=False)
        steps = cpack_lg_fst()
        first = bind(steps, moldyn_data, cache)
        keys = fp.stage_fingerprints(steps, moldyn_data, "once", "raise")
        for key in keys:
            entry = cache.get_stage(key)
            for name, array in entry.arrays.items():
                assert not array.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1
        # A replay hands out arrays of its own: writing them in place
        # changes no later bind.
        again = bind(
            [CPackStep(), LexGroupStep(), FullSparseTilingStep(8)],
            moldyn_data, cache,
        )
        assert all(s.replayed for s in again.report.stages)
        again.stage_functions["cp0"][:] = 0
        again.stage_functions["lg1"][:] = 0
        again.tiling.tiles[0][:] = 0
        last = bind(
            [CPackStep(), LexGroupStep(), FullSparseTilingStep(8)],
            moldyn_data, cache, remap="each",
        )
        assert all(s.replayed for s in last.report.stages)
        cold = bind(
            [CPackStep(), LexGroupStep(), FullSparseTilingStep(8)],
            moldyn_data, remap="each",
        )
        assert produced(last) == produced(cold)
        assert first.report.cache == "stored"

    def test_outputs_share_the_memory_budget(self, moldyn_data):
        cache = PlanCache(use_disk=False, memory_budget_bytes=1)
        bind(cpack_lg(), moldyn_data, cache)
        result = bind(cpack_lg_fst(), moldyn_data, cache)
        assert len(cache.memory) == 0
        assert not any(s.replayed for s in result.report.stages)

    @pytest.mark.filterwarnings("ignore::repro.errors.DegradedPlanWarning")
    @pytest.mark.parametrize(
        "stage, fault",
        [(0, "clobber-entry"), (1, "fail-stage"), (2, "scramble-tiling")],
    )
    @pytest.mark.parametrize("policy", ["raise", "skip"])
    def test_a_corrupted_stage_stores_nothing_and_does_not_leak(
        self, moldyn_data, stage, fault, policy
    ):
        cache = PlanCache(use_disk=False)
        faulty = inject(cpack_lg_fst(), stage=stage, fault=fault, seed=3)
        keys = fp.stage_fingerprints(faulty, moldyn_data, "once", policy)
        try:
            bind(faulty, moldyn_data, cache, on_stage_failure=policy)
        except ReproError:
            assert policy == "raise"
        assert cache.get_stage(keys[stage]) is None
        # The stages before the fault are the clean prefix's: a clean
        # bind replays exactly those and equals a cold bind.
        clean = bind(cpack_lg_fst(), moldyn_data, cache, on_stage_failure=policy)
        assert [s.replayed for s in clean.report.stages] == [
            index < stage for index in range(4)
        ]
        cold = bind(cpack_lg_fst(), moldyn_data, on_stage_failure=policy)
        assert produced(clean) == produced(cold)

    def test_a_direct_inspector_run_uses_the_memo(self, moldyn_data):
        cache = PlanCache(use_disk=False)
        ComposedInspector(cpack_lg()).run(moldyn_data, cache=cache)
        result = ComposedInspector(cpack_lg_fst()).run(moldyn_data, cache=cache)
        assert [s.replayed for s in result.report.stages][:2] == [True, True]
        # The stage runner without a cache never replays.
        bare = ComposedInspector(cpack_lg_fst()).run_stages(moldyn_data)
        assert produced(bare) == produced(result)
