"""End-to-end cache correctness: warm binds are bit-identical, stale
entries are safe misses — never wrong reuse."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernels.specs import kernel_by_name
from repro.plancache import PlanCache, memo
from repro.plancache import fingerprint as fp
from repro.runtime import (
    ComposedInspector,
    CompositionPlan,
    CPackStep,
    FullSparseTilingStep,
    GPartStep,
    LexGroupStep,
    TilePackStep,
    run_numeric,
)

from tests.incremental.conftest import stage_function_bytes
from tests.plancache.conftest import tiny_data

pytestmark = pytest.mark.plancache

#: Step lists must be rebuilt per plan (steps are stateless but plans
#: own their list), so recipes are factories.
STEP_RECIPES = {
    "cpack": lambda: [CPackStep()],
    "cpack+lg": lambda: [CPackStep(), LexGroupStep()],
    "gpart+lg+fst": lambda: [
        GPartStep(8),
        LexGroupStep(),
        FullSparseTilingStep(16),
    ],
}


def make_plan(recipe="cpack", **kwargs):
    return CompositionPlan(
        kernel_by_name("moldyn"), STEP_RECIPES[recipe](), **kwargs
    )


def assert_bit_identical(cold, warm, num_steps=2):
    """Cold and warm binds agree on every executor-visible artifact."""
    assert np.array_equal(cold.transformed.left, warm.transformed.left)
    assert np.array_equal(cold.transformed.right, warm.transformed.right)
    assert np.array_equal(cold.sigma_nodes.array, warm.sigma_nodes.array)
    for name in cold.transformed.arrays:
        assert np.array_equal(
            cold.transformed.arrays[name], warm.transformed.arrays[name]
        )
    # A node loop's iteration reordering is sigma (above); the
    # interaction loop's composes the iteration reorderings' stage
    # functions, which a hit does not carry (the entry does).
    if warm.report.cache == "hit":
        assert warm.stage_functions is None
    else:
        assert stage_function_bytes(cold) == stage_function_bytes(warm)
    assert (cold.tiling is None) == (warm.tiling is None)
    if cold.tiling is not None:
        assert cold.tiling.num_tiles == warm.tiling.num_tiles
        for a, b in zip(cold.tiling.tiles, warm.tiling.tiles):
            assert np.array_equal(a, b)
    cold_run = run_numeric(cold.transformed.copy(), num_steps)
    warm_run = run_numeric(warm.transformed.copy(), num_steps)
    for name in cold_run.arrays:
        assert np.array_equal(cold_run.arrays[name], warm_run.arrays[name])


_DIR_IDS = itertools.count()


@settings(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    recipe=st.sampled_from(sorted(STEP_RECIPES)),
)
def test_warm_bind_bit_identical_property(tmp_path, seed, recipe):
    """The satellite property: across seeded datasets and compositions, a
    cache-hit bind produces a bit-identical executor result to a cold
    bind (tmp_path is function-scoped; a counter keeps examples apart)."""
    data = tiny_data("moldyn", seed=seed)
    cache = PlanCache(directory=tmp_path / f"case-{next(_DIR_IDS)}")
    plan = make_plan(recipe)
    cold = plan.bind(data, cache=cache)
    warm = plan.bind(data, cache=cache)
    assert cold.report.cache == "stored"
    assert warm.report.cache == "hit"
    assert_bit_identical(cold, warm)
    entry = cache.get(fp.bind_fingerprint(plan, data))
    for index, step in enumerate(plan.steps):
        if step.symbol_domain == "inters":
            name = f"{step.symbol_prefix}{index}"
            stored = memo.stage_function(entry, name)
            assert stored.tobytes() == cold.stage_functions[name].tobytes()


class TestWarmBind:
    def test_skips_every_stage(self, disk_cache, moldyn_data):
        plan = make_plan("gpart+lg+fst")
        plan.bind(moldyn_data, cache=disk_cache)
        assert disk_cache.stats.misses == 1 and disk_cache.stats.stores == 1
        warm = plan.bind(moldyn_data, cache=disk_cache)
        stats = disk_cache.stats
        assert stats.hits == 1 and stats.memory_hits == 1
        assert stats.stages_skipped == len(plan.steps)
        for step in plan.steps:
            assert stats.stage_hits[step.name] == 1
        # The hit report proves nothing executed on this bind.
        assert warm.report.cache == "hit"
        assert all(s.elapsed_s == 0.0 for s in warm.report.stages)

    def test_disk_tier_survives_a_fresh_cache(self, tmp_path, moldyn_data):
        """Simulates a new process: fresh PlanCache, same directory."""
        plan = make_plan("cpack+lg")
        first = PlanCache(directory=tmp_path / "cache")
        cold = plan.bind(moldyn_data, cache=first)
        second = PlanCache(directory=tmp_path / "cache")
        warm = plan.bind(moldyn_data, cache=second)
        assert second.stats.disk_hits == 1 and second.stats.memory_hits == 0
        assert_bit_identical(cold, warm)

    def test_direct_inspector_run_path(self, memory_cache, moldyn_data):
        """ComposedInspector.run computes its own key when not given one."""
        inspector = ComposedInspector(STEP_RECIPES["cpack+lg"]())
        cold = inspector.run(moldyn_data, cache=memory_cache)
        warm = inspector.run(moldyn_data, cache=memory_cache)
        assert memory_cache.stats.hits == 1
        assert_bit_identical(cold, warm)

    @pytest.mark.filterwarnings("ignore::repro.errors.DegradedPlanWarning")
    def test_degraded_plan_is_cached_and_verified_once(
        self, disk_cache, moldyn_data
    ):
        # TilePackStep without a prior tiling fails preconditions; the
        # 'skip' policy degrades, which forces the numeric verifier.
        plan = CompositionPlan(
            kernel_by_name("moldyn"),
            [CPackStep(), TilePackStep()],
            on_stage_failure="skip",
        )
        cold = plan.bind(moldyn_data, cache=disk_cache)
        assert cold.report.degraded and cold.report.verified
        warm = plan.bind(moldyn_data, cache=disk_cache)
        # The hit preserves the degraded stage statuses, and the verifier
        # verdict is memoized: the two executor passes ran only once.
        assert warm.report.degraded and warm.report.verified
        assert warm.report.cache == "hit"
        assert disk_cache.stats.verify_memo_hits == 1
        assert_bit_identical(cold, warm)


class TestInvalidation:
    def test_mutated_index_array_misses(self, disk_cache, moldyn_data):
        plan = make_plan("cpack+lg")
        plan.bind(moldyn_data, cache=disk_cache)
        mutated = moldyn_data.copy()
        mutated.left[0] = (mutated.left[0] + 1) % mutated.num_nodes
        result = plan.bind(mutated, cache=disk_cache)
        assert disk_cache.stats.hits == 0 and disk_cache.stats.misses == 2
        assert result.report.cache == "stored"
        # The fresh entry reflects the mutated dataset, not the stale one.
        reference = make_plan("cpack+lg").bind(mutated.copy())
        assert_bit_identical(reference, result)

    def test_bumped_code_salt_misses(self, disk_cache, moldyn_data, monkeypatch):
        plan = make_plan("cpack")
        plan.bind(moldyn_data, cache=disk_cache)
        monkeypatch.setattr(fp, "SALT_EXTRA", "algorithm-changed")
        plan.bind(moldyn_data, cache=disk_cache)
        assert disk_cache.stats.hits == 0 and disk_cache.stats.misses == 2
        assert disk_cache.stats.stores == 2  # re-stored under the new key

    def test_corrupted_disk_artifact_is_safe_miss(self, tmp_path, moldyn_data):
        plan = make_plan("cpack+lg")
        writer = PlanCache(directory=tmp_path / "cache")
        cold = plan.bind(moldyn_data, cache=writer)
        [artifact] = (tmp_path / "cache").glob("*/*.npz")
        artifact.write_bytes(b"\x00" * 64)  # tampered in place

        reader = PlanCache(directory=tmp_path / "cache")
        result = plan.bind(moldyn_data, cache=reader)
        assert reader.stats.corrupt == 1
        assert reader.stats.hits == 0 and reader.stats.misses == 1
        # The corrupt entry was never served: the bind re-ran cold,
        # produced the right answer, and healed the slot.
        assert result.report.cache == "stored"
        assert_bit_identical(cold, result)
        third = PlanCache(directory=tmp_path / "cache")
        warm = plan.bind(moldyn_data, cache=third)
        assert third.stats.disk_hits == 1 and third.stats.corrupt == 0
        assert_bit_identical(cold, warm)

    def test_wrong_dataset_shape_never_reuses(self, memory_cache):
        """Same kernel, different extents: distinct keys, distinct entries."""
        small = tiny_data("moldyn", num_nodes=30, num_inter=80)
        large = tiny_data("moldyn", num_nodes=40, num_inter=90)
        plan = make_plan("cpack")
        plan.bind(small, cache=memory_cache)
        result = plan.bind(large, cache=memory_cache)
        assert memory_cache.stats.hits == 0
        assert memory_cache.stats.misses == 2
        assert result.transformed.num_nodes == 40
