"""A result's execution plan is derived from its tiling when read.

``InspectorResult.plan`` is a fact of ``tiling``: the first read builds
``ExecutionPlan(schedule=tiling.schedule())`` (the identity plan when no
stage tiled) and memoises it on the result.  So a cold bind, a warm hit
and a patched rebind build no tile schedule until someone executes.
"""

import numpy as np
import pytest

from repro.plancache import PlanCache
from repro.runtime import plan_from_spec
from repro.runtime.executor import ExecutionPlan
from repro.transforms.tile_schedule import TileSchedule

from tests.incremental.conftest import small_delta, tiny_data


@pytest.fixture
def schedule_builds(monkeypatch):
    """Every ``TileSchedule.from_tiling`` call, as its tile count."""
    calls = []
    original = TileSchedule.from_tiling

    def counting(cls, tiles, num_tiles):
        calls.append(num_tiles)
        return original(tiles, num_tiles)

    monkeypatch.setattr(TileSchedule, "from_tiling", classmethod(counting))
    return calls


def _binds(steps):
    """A cold bind, a warm hit and a patched rebind of ``steps``."""
    data = tiny_data(num_nodes=60, num_inter=400)
    plan = plan_from_spec({"kernel": "moldyn", "steps": steps})
    cache = PlanCache(use_disk=False)
    cold = plan.bind(data, cache=cache)
    warm = plan.bind(data, cache=cache)
    patched = plan.rebind(data, small_delta(data, removed=1, added=1), cache=cache)
    assert (cold.report.cache, warm.report.cache) == ("stored", "hit")
    assert patched.delta_info["mode"] == "patched"
    return {"cold": cold, "warm": warm, "patched": patched}


def test_the_plan_is_derived_on_first_read(schedule_builds):
    binds = _binds(["cpack", "fst", "tilepack"])
    assert schedule_builds == []
    for path, result in binds.items():
        schedule = result.plan.schedule
        assert len(schedule_builds) == 1, path
        assert result.plan is result.plan
        assert len(schedule_builds) == 1, path
        expected = result.tiling.schedule()
        assert schedule.num_tiles == expected.num_tiles
        for mine, theirs in zip(schedule.loops, expected.loops):
            np.testing.assert_array_equal(mine.flat, theirs.flat)
            np.testing.assert_array_equal(mine.offsets, theirs.offsets)
            assert mine.is_range == theirs.is_range
        schedule_builds.clear()

    for path, result in _binds(["cpack", "lexgroup"]).items():
        assert result.tiling is None, path
        assert result.plan == ExecutionPlan.identity()
    assert schedule_builds == []
