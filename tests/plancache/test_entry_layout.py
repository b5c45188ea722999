"""A plan-cache entry holds each fact once, at the narrowest width.

* what a hit returns is ``int64`` and ``tobytes()``-equal to a cold
  bind, though the entry stores narrower arrays;
* a hit ran no stage, so it carries no stage functions, and the
  verifiers that bind them refuse it with a typed error;
* an entry in the earlier layout (every array ``int64``, one delta per
  loop, every stage function, the ``stage_functions`` metadata) still
  rehydrates bit-identically or is a counted safe miss, and a delta-bind
  still patches from it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.machines import machine_by_name
from repro.errors import BindError
from repro.eval.compositions import composition_steps
from repro.kernels import generate_dataset, make_kernel_data
from repro.kernels.specs import kernel_by_name
from repro.plancache import CacheEntry, PlanCache, memo
from repro.plancache.fingerprint import bind_fingerprint
from repro.runtime import (
    CompositionPlan,
    CPackStep,
    FullSparseTilingStep,
    LexGroupStep,
    TilePackStep,
)
from repro.runtime.symbolic_executor import symbolic_execution_order
from repro.runtime.verify import verify_dependences

from tests.incremental.conftest import assert_bit_identical, small_delta

pytestmark = pytest.mark.plancache


def _plan():
    return CompositionPlan(
        kernel_by_name("moldyn"),
        [CPackStep(), LexGroupStep(), FullSparseTilingStep(16), TilePackStep()],
    )


def _arrays(result):
    """Every array a bind returns, by name."""
    out = {
        "left": result.transformed.left,
        "right": result.transformed.right,
        "sigma": result.sigma_nodes.array,
    }
    out.update(
        (f"tiles {loop}", tiles) for loop, tiles in enumerate(result.tiling.tiles)
    )
    out.update(
        (f"payload {name}", array)
        for name, array in result.transformed.arrays.items()
    )
    return out


def earlier_layout(result, steps):
    """``result``'s entry as the earlier layout stored it: every array
    ``int64``, each loop's iteration reordering under ``delta__<loop>``
    and every stage function under ``sf__`` / ``sfl__``."""
    data = result.transformed
    sigma = result.sigma_nodes.array
    interaction = np.arange(data.num_inter, dtype=np.int64)
    for index, step in enumerate(steps):
        if step.symbol_domain == "inters":
            interaction = result.stage_functions[f"{step.symbol_prefix}{index}"][
                interaction
            ]
    arrays = {"left": data.left, "right": data.right, "sigma": sigma}
    p_j = data.interaction_loop_position()
    for pos in range(len(data.loops)):
        arrays[f"delta__{pos}"] = interaction if pos == p_j else sigma
    for loop, tiles in enumerate(result.tiling.tiles):
        arrays[f"tile__{loop}"] = tiles
    specs = {}
    for name, value in result.stage_functions.items():
        if isinstance(value, list):
            specs[name] = len(value)
            for loop, part in enumerate(value):
                arrays[f"sfl__{name}__{loop}"] = part
        else:
            specs[name] = "array"
            arrays[f"sf__{name}"] = value
    meta = {
        "kernel_name": data.kernel_name,
        "dataset_name": data.dataset_name,
        "num_nodes": int(data.num_nodes),
        "num_inter": int(data.num_inter),
        "delta_positions": list(range(len(data.loops))),
        "num_tiles": int(result.tiling.num_tiles),
        "stage_functions": specs,
        "overhead": {k: int(v) for k, v in result.overhead.items()},
        "data_moves": int(result.data_moves),
        "step_names": [step.name for step in steps],
        "report": result.report.to_dict(),
    }
    return CacheEntry(
        meta=meta,
        arrays={k: np.asarray(v, dtype=np.int64) for k, v in arrays.items()},
    )


class TestHit:
    @pytest.mark.parametrize("tier", ["memory", "disk"])
    def test_every_array_is_int64_and_cold_identical(
        self, tmp_path, moldyn_data, tier
    ):
        plan = _plan()
        if tier == "memory":
            cache = PlanCache(use_disk=False)
            cold = plan.bind(moldyn_data, cache=cache)
        else:
            cold = plan.bind(moldyn_data, cache=PlanCache(directory=tmp_path))
            cache = PlanCache(directory=tmp_path)  # a new process
        entry = cache.get(bind_fingerprint(plan, moldyn_data))
        assert entry.arrays["left"].dtype == np.int8  # 30 nodes
        warm = plan.bind(moldyn_data, cache=cache)
        assert warm.report.cache == "hit"
        cold_arrays, warm_arrays = _arrays(cold), _arrays(warm)
        assert warm_arrays.keys() == cold_arrays.keys()
        for name, array in warm_arrays.items():
            if not name.startswith("payload"):
                assert array.dtype == np.int64, name
            assert array.tobytes() == cold_arrays[name].tobytes(), name

    def test_the_verifiers_refuse_a_hit(self, moldyn_data):
        plan = _plan()
        cache = PlanCache(use_disk=False)
        cold = plan.bind(moldyn_data, cache=cache)
        warm = plan.bind(moldyn_data, cache=cache)
        assert warm.stage_functions is None
        with pytest.raises(BindError, match="plan cache"):
            verify_dependences(moldyn_data, warm, plan, max_pairs=10)
        with pytest.raises(BindError, match="plan cache"):
            symbolic_execution_order(moldyn_data, warm, plan)
        assert verify_dependences(moldyn_data, cold, plan, max_pairs=10) == 10


class TestLayout:
    def test_moldyn_mol1_cpack_fst_entry_is_at_most_a_megabyte(self):
        data = make_kernel_data("moldyn", generate_dataset("mol1", scale=12))
        steps = composition_steps("cpack+fst", data, machine_by_name("pentium4"))
        result = CompositionPlan(kernel_by_name("moldyn"), steps).bind(data)
        entry = memo.result_to_entry(result, steps)
        assert sorted(entry.arrays) == [
            "left", "right", "sf__lg1", "sigma", "tile__0", "tile__1", "tile__2",
        ]
        assert sum(array.nbytes for array in entry.arrays.values()) <= 1_000_000

    @given(
        st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6),
        st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_the_narrowest_width_never_wraps(self, values, dtype):
        info = np.iinfo(dtype)
        array = np.clip(np.array(values, dtype=np.int64), info.min, info.max)
        stored = memo._narrowest(array)
        assert stored.astype(np.int64).tobytes() == array.tobytes()
        holds = [
            width
            for width in (np.int8, np.int16, np.int32, np.int64)
            if not len(array)
            or np.iinfo(width).min <= array.min() <= array.max() <= np.iinfo(width).max
        ]
        assert stored.dtype == holds[0]


class TestEarlierLayout:
    @pytest.mark.parametrize("tier", ["memory", "disk"])
    def test_rehydrates_identically_or_misses_safely(
        self, tmp_path, moldyn_data, tier
    ):
        plan = _plan()
        cold = plan.bind(moldyn_data)
        cache = (
            PlanCache(use_disk=False)
            if tier == "memory"
            else PlanCache(directory=tmp_path, memory_budget_bytes=1)
        )
        cache.put(
            bind_fingerprint(plan, moldyn_data), earlier_layout(cold, plan.steps)
        )
        result = plan.bind(moldyn_data, cache=cache)
        if result.report.cache == "hit":
            assert cache.stats.corrupt == 0
        else:
            assert cache.stats.corrupt == 1
        cold_arrays = _arrays(cold)
        for name, array in _arrays(result).items():
            assert array.tobytes() == cold_arrays[name].tobytes(), name

    def test_a_delta_bind_patches_from_it(self, moldyn_data):
        plan = _plan()
        parent = plan.bind(moldyn_data)
        cache = PlanCache(use_disk=False)
        cache.put(
            bind_fingerprint(plan, moldyn_data),
            earlier_layout(parent, plan.steps),
        )
        delta = small_delta(moldyn_data, seed=3)
        result = plan.rebind(moldyn_data, delta, cache=cache)
        assert result.delta_info["mode"] == "patched", result.delta_info
        assert_bit_identical(result, plan.bind(delta.apply(moldyn_data)))
