"""The four workloads: set-up, op lists, timed op, untimed check.

Each workload drives the system only through public functions, from one
closed-loop client thread against ``PlanService(workers=1, threads)``.
The runner (``runner.py``) times ``execute`` alone; ``prepare`` and
``check`` run outside the timed region.  ``--seed`` drives op order and
delta seeds only, so every seed does the same amount of work.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from benchmarks.e2e import reference

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

KERNELS = ("moldyn", "nbf", "irreg")
MACHINE = "pentium4"

#: cold_bind / warm_serve / stream_rebind dataset scale (mol1: 11k nodes,
#: 91k interactions; the largest at which 92 runs fit the driver's 57
#: minutes with a quarter to spare) and the exec_steps scale (65k nodes,
#: 550k interactions: index arrays several times the last-level cache).
BIND_SCALE = 12
EXEC_SCALE = 2
BIND_DATASETS = ("mol1", "foil")
REMAPS = ("once", "each")

#: Memory-tier budget of the services whose working set must stay resident
#: (warm_serve's 72 entries are ~470 MB; the default is 64 MiB).  cold_bind
#: only writes, so it keeps the default: the LRU then recycles the heap
#: from the ninth bind on, and all three rounds see the same allocator
#: state instead of the first one paying first-touch page faults for 560 MB.
RESIDENT_BUDGET_BYTES = 1 << 30

#: Time steps per op of each executor shape in the timed mix, chosen so
#: that every op takes about 45 ms.  With ten steps each the three shapes
#: form three latency clusters (28 / 47 / 55 ms), the pooled median sits on
#: the edge of the tiled-c cluster and follows that one shape's noise (its
#: speed relative to the other shapes moves 4% between identical runs).
EXEC_STEPS = {"untiled-numpy": 8, "untiled-c": 16, "tiled-c": 10}
EXEC_SHAPES = tuple(EXEC_STEPS)

STREAM_KERNEL = "moldyn"
STREAM_DATASET = "mol1"
STREAM_COMPOSITION = "cpack+fst"
STREAM_EPOCHS = 17
STREAM_EDGE_RATE = 0.02
STREAM_MOVE_RATE = 0.01


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class BindKey:
    kernel: str
    dataset: str
    composition: str
    remap: str
    spec: dict

    @property
    def id(self) -> str:
        return f"{self.kernel}/{self.dataset}/{self.composition}/{self.remap}"


def composition_spec(kernel: str, composition: str, data, remap: str = "once") -> dict:
    """A named composition of ``repro.eval.compositions`` as a plan spec."""
    from repro.cachesim.machines import machine_by_name
    from repro.eval.compositions import composition_steps
    from repro.runtime.planspec import step_to_spec

    steps = composition_steps(composition, data, machine_by_name(MACHINE))
    return {
        "kernel": kernel,
        "name": composition,
        "remap": remap,
        "steps": [step_to_spec(step) for step in steps],
    }


def bind_datasets() -> Dict[tuple, object]:
    """(kernel, dataset) -> KernelData for the bind workloads' six handles."""
    from repro.kernels import generate_dataset, make_kernel_data

    out = {}
    for name in BIND_DATASETS:
        dataset = generate_dataset(name, scale=BIND_SCALE)
        for kernel in KERNELS:
            out[kernel, name] = make_kernel_data(kernel, dataset)
    return out


def bind_keys(data: Dict[tuple, object]) -> List[BindKey]:
    """The 72 keys of cold_bind and warm_serve, in a fixed order:
    3 kernels x 2 datasets x 6 non-baseline compositions x 2 remap policies
    (Figure 16's once/each: same executor, distinct plan fingerprints)."""
    from repro.eval.compositions import COMPOSITIONS

    keys = []
    for (kernel, name), instance in sorted(data.items()):
        for composition in COMPOSITIONS:
            if composition == "baseline":
                continue
            for remap in REMAPS:
                spec = composition_spec(kernel, composition, instance, remap)
                keys.append(BindKey(kernel, name, composition, remap, spec))
    return keys


def new_service(**cache_options):
    """A started single-worker in-thread service over a fresh memory-tier
    cache (``memory_budget_bytes=...`` overrides the cache's default)."""
    from repro.plancache import PlanCache
    from repro.service import PlanService, ServiceConfig

    cache = PlanCache(use_disk=False, **cache_options)
    service = PlanService(
        ServiceConfig(workers=1, executor="threads"), cache=cache
    )
    return service.start()


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


@dataclass
class Op:
    """One closed-loop operation; ``item`` is workload-specific."""

    id: int
    item: object


class Workload:
    """Protocol the runner drives.  ``rounds()`` returns three op lists."""

    name = ""

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.scale = scale
        self.rng = np.random.default_rng(seed)
        self.failures: List[str] = []
        #: Called between the phases of set-up; the runner hangs the speed
        #: probe on it so set-up time is corrected like op time.
        self.tick = lambda: None

    def setup(self) -> None:
        """Build everything and call ``_number`` with the op items."""
        raise NotImplementedError

    def warmup(self) -> List[Op]:
        return self._warm

    def rounds(self) -> List[List[Op]]:
        return self._rounds

    def between_rounds(self) -> None:
        pass

    def prepare(self, op: Op) -> None:
        pass

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> bool:
        raise NotImplementedError

    def decompose(self, op: Op, tracer) -> None:
        """Re-issue the op's constituent public calls, one child span each."""

    def close(self) -> None:
        pass

    # -- shared helpers ---------------------------------------------------

    def fail(self, op: Op, reason: str) -> bool:
        self.failures.append(f"{self.name} op {op.id} ({op.item}): {reason}")
        return False

    def _number(self, groups: Sequence[Sequence[object]], warm: Sequence[object]) -> None:
        """Wrap the warm-up and round items in ``Op``s with run-unique ids."""
        ids = itertools.count()
        self._warm = [Op(next(ids), item) for item in warm]
        self._rounds = [[Op(next(ids), item) for item in group] for group in groups]

    def _shuffled_passes(self, items: Sequence[object], passes: int) -> List[object]:
        """``passes`` seeded permutations of ``items``: every item equally
        often, so every seed does the same work in another order."""
        out: List[object] = []
        for _ in range(passes):
            out.extend(items[i] for i in self.rng.permutation(len(items)))
        return out


# ---------------------------------------------------------------------------
# cold_bind and warm_serve share the 72 keys


class _BindWorkload(Workload):
    cache_options: Dict[str, int] = {}

    def _setup_keys(self) -> None:
        self.data = bind_datasets()
        keys = bind_keys(self.data)
        # A shorter run binds a seeded subset; the full run binds all 72.
        wanted = min(len(keys), scaled(len(keys), self.scale, floor=6))
        if wanted < len(keys):
            chosen = sorted(self.rng.permutation(len(keys))[:wanted])
            keys = [keys[i] for i in chosen]
        self.keys = keys
        self.golden = load_golden()["bind"]
        self.service = new_service(**self.cache_options)
        self.cache = self.service.cache
        for kernel in KERNELS:
            for name in BIND_DATASETS:
                self.service.preload_handle(kernel, name, BIND_SCALE)
                self.tick()

    def request(self, key: BindKey, verify: Optional[bool]):
        from repro.service import BindRequest

        return BindRequest(
            spec=key.spec, dataset=key.dataset, scale=BIND_SCALE, verify=verify
        )

    def _check_response(self, op: Op, response, provenance: str) -> bool:
        key: BindKey = op.item
        if response.status != "ok":
            return self.fail(op, f"status {response.status}: {response.error}")
        if response.cache != provenance:
            return self.fail(
                op, f"cache provenance {response.cache!r}, expected {provenance!r}"
            )
        if response.fingerprints != self.golden.get(key.id):
            return self.fail(op, "digests differ from golden.json")
        return True

    def close(self) -> None:
        self.service.stop()


class ColdBind(_BindWorkload):
    name = "cold_bind"

    def setup(self) -> None:
        self._setup_keys()
        # A round is a pass and a half: every key once, a seeded half twice.
        per_round = len(self.keys) + len(self.keys) // 2
        groups = [self._shuffled_passes(self.keys, 2)[:per_round] for _ in range(3)]
        warm = self._shuffled_passes(self.keys, 1)[: math.ceil(len(self.keys) / 3)]
        self._number(groups, warm)
        self._bound = set()

    def between_rounds(self) -> None:
        # Cold means cold: verification verdicts are memoised process-wide,
        # so a second verify=True bind of a key would skip the executor runs.
        from repro.runtime.verify import clear_verification_memo

        self.cache.clear()
        clear_verification_memo()
        self._bound.clear()

    def prepare(self, op: Op) -> None:
        # A key about to be bound again since the last clear would hit.
        if op.item.id in self._bound:
            self.between_rounds()
        self._bound.add(op.item.id)

    def execute(self, op: Op):
        return self.service.bind(self.request(op.item, verify=True))

    def check(self, op: Op, response) -> bool:
        if not self._check_response(op, response, "stored"):
            return False
        if not (response.report or {}).get("verified"):
            return self.fail(op, "bind was not numerically verified")
        return True

    def decompose(self, op: Op, tracer) -> None:
        from benchmarks.e2e.layers import decompose_cold_bind

        decompose_cold_bind(self, op, tracer)


class WarmServe(_BindWorkload):
    name = "warm_serve"
    cache_options = {"memory_budget_bytes": RESIDENT_BUDGET_BYTES}

    def setup(self) -> None:
        self._setup_keys()
        passes = scaled(5, self.scale)
        groups = [self._shuffled_passes(self.keys, passes) for _ in range(3)]
        self._number(groups, warm=self._shuffled_passes(self.keys, 1))

    def warmup(self) -> List[Op]:
        # The populating pass and one pass of hits are the warm-up.  The
        # populating order is fixed, not seeded: it decides where the 72
        # entries land in memory, and that layout alone moved op_p50_ms by
        # 8% between seeds.
        for key in self.keys:
            response = self.service.bind(self.request(key, verify=None))
            if response.status != "ok" or response.cache != "stored":
                raise RuntimeError(
                    f"could not populate {key.id}: {response.status} "
                    f"{response.cache} {response.error}"
                )
            self.tick()
        return self._warm

    def execute(self, op: Op):
        return self.service.bind(self.request(op.item, verify=None))

    def check(self, op: Op, response) -> bool:
        return self._check_response(op, response, "hit")

    def decompose(self, op: Op, tracer) -> None:
        from benchmarks.e2e.layers import decompose_warm_serve

        decompose_warm_serve(self, op, tracer)


# ---------------------------------------------------------------------------
# exec_steps


@dataclass
class ExecCase:
    """One kernel planned, bound and compiled at the paper's compile time."""

    kernel: str
    data: object
    result: object
    schedule: list
    waves: object
    pristine: Dict[str, np.ndarray]
    #: Reference output after each step count in ``EXEC_STEPS``.
    expected: Dict[int, Dict[str, np.ndarray]]


def build_exec_case(kernel: str, dataset, tick=lambda: None) -> ExecCase:
    """Plan, bind and compile one kernel for exec_steps (set-up work)."""
    from repro.kernels import make_kernel_data
    from repro.lowering import compile_executor
    from repro.runtime.inspector import dependence_edges
    from repro.runtime.planspec import plan_from_spec
    from repro.transforms import tile_wavefronts

    data = make_kernel_data(kernel, dataset)
    plan = plan_from_spec(composition_spec(kernel, "cpack+fst", data))
    plan.plan()
    tick()
    result = plan.bind(data)
    tick()
    for backend in ("numpy", "c"):
        for tiled in (False, True):
            compile_executor(kernel, backend=backend, tiled=tiled)
    tick()
    waves = tile_wavefronts(result.tiling, dependence_edges(result.transformed))
    tick()
    return ExecCase(
        kernel=kernel,
        data=data,
        result=result,
        schedule=result.tiling.schedule(),
        waves=waves,
        pristine={k: v.copy() for k, v in result.transformed.arrays.items()},
        expected={
            steps: reference.run(kernel, data.arrays, data.left, data.right, steps)
            for steps in set(EXEC_STEPS.values())
        },
    )


def run_exec_shape(case: ExecCase, shape: str, num_steps: int) -> None:
    """``num_steps`` time steps of one executor shape, in place."""
    from repro.runtime import run_numeric, run_numeric_wavefront

    layout, backend = shape.split("-", 1)
    if layout == "untiled":
        run_numeric(case.result.transformed, num_steps=num_steps, backend=backend)
    else:
        run_numeric_wavefront(
            case.result.transformed,
            case.schedule,
            case.waves,
            num_steps=num_steps,
            parallel=False,
            backend=backend,
        )


def restore_payload(case: ExecCase) -> None:
    """Reset the payload in place: repeated steps on the same arrays
    overflow to inf within a few hundred steps."""
    for name, values in case.pristine.items():
        case.result.transformed.arrays[name][:] = values


class ExecSteps(Workload):
    name = "exec_steps"

    def setup(self) -> None:
        from repro.kernels import generate_dataset

        dataset = generate_dataset("mol1", scale=EXEC_SCALE)
        self.tick()
        self.cases = {
            kernel: build_exec_case(kernel, dataset, self.tick)
            for kernel in KERNELS
        }
        items = [(kernel, shape) for kernel in KERNELS for shape in EXEC_SHAPES]
        groups = [
            self._shuffled_passes(items, scaled(9, self.scale)) for _ in range(3)
        ]
        warm = self._shuffled_passes(items, scaled(3, self.scale))
        self._number(groups, warm)
        self._first_output: Dict[tuple, Dict[str, np.ndarray]] = {}

    def prepare(self, op: Op) -> None:
        restore_payload(self.cases[op.item[0]])

    def execute(self, op: Op):
        kernel, shape = op.item
        run_exec_shape(self.cases[kernel], shape, EXEC_STEPS[shape])
        return None

    def check(self, op: Op, _out) -> bool:
        kernel, shape = op.item
        case = self.cases[kernel]
        arrays = case.result.transformed.arrays
        first = self._first_output.get(op.item)
        if first is not None:
            # Same inputs, same executor: later ops must repeat bit for bit.
            if all(np.array_equal(arrays[n], first[n]) for n in first):
                return True
            return self.fail(op, "output differs from the item's first op")
        pulled = {name: case.result.restore_array(name) for name in arrays}
        if not reference.matches(case.expected[EXEC_STEPS[shape]], pulled):
            return self.fail(op, "output differs from the independent reference")
        self._first_output[op.item] = {n: a.copy() for n, a in arrays.items()}
        return True

    def decompose(self, op: Op, tracer) -> None:
        from benchmarks.e2e.layers import decompose_exec_steps

        decompose_exec_steps(self, op, tracer)


# ---------------------------------------------------------------------------
# stream_rebind


class StreamRebind(Workload):
    """Bounded epoch chains, each on a fresh service and cache.

    A service retains every published epoch, so one long chain grows the
    heap by ~11 MB an epoch and every rebind then pays first-touch page
    faults on top of its own work.  Chains are therefore ``STREAM_EPOCHS``
    long; the first (warm-up) chain grows the heap to its steady size.
    All chains replay the same seeded deltas from the same epoch-0 dataset,
    so each op is checked against a direct cold bind of its child dataset
    at the cost of ``STREAM_EPOCHS`` cold binds per run.
    """

    name = "stream_rebind"
    #: ``--regen-golden`` turns this off while it records the digest.
    check_golden = True

    def setup(self) -> None:
        from repro.kernels import generate_dataset, make_kernel_data
        from repro.runtime.faults import make_drift_delta
        from repro.runtime.planspec import plan_from_spec
        from repro.service import result_digests

        self.service = None
        data = make_kernel_data(
            STREAM_KERNEL, generate_dataset(STREAM_DATASET, scale=BIND_SCALE)
        )
        self.spec = composition_spec(STREAM_KERNEL, STREAM_COMPOSITION, data)
        plan = plan_from_spec(self.spec)
        self.datasets = [data]
        self.deltas = []
        self.expected = []
        for epoch in range(1, STREAM_EPOCHS + 1):
            delta = make_drift_delta(
                data,
                edge_rate=STREAM_EDGE_RATE,
                move_rate=STREAM_MOVE_RATE,
                seed=self.seed * 1000 + epoch,
            )
            data = delta.apply(data)
            self.datasets.append(data)
            self.deltas.append(delta)
            self.expected.append(result_digests(plan.bind(data)))
            self.tick()
        if self.seed == 0 and self.check_golden:
            final = load_golden()["stream_final_seed0"]
            if self.expected[-1] != final:
                raise RuntimeError(
                    "cold bind of the seed-0 final epoch differs from golden.json"
                )
        chains = scaled(6, self.scale)
        epochs = list(range(1, STREAM_EPOCHS + 1))
        groups = [
            [(chain, epoch) for chain in range(chains) for epoch in epochs]
            for _ in range(3)
        ]
        warm = [(-1, epoch) for epoch in epochs]
        self._number(groups, warm)

    def _counter(self, name: str) -> int:
        return self.service.telemetry.counter(name).value

    def prepare(self, op: Op) -> None:
        _chain, epoch = op.item
        if epoch != 1:
            return
        from repro.runtime.verify import clear_verification_memo
        from repro.service import BindRequest

        self.close()
        gc.collect()
        self.service = new_service(memory_budget_bytes=RESIDENT_BUDGET_BYTES)
        self.cache = self.service.cache
        self.service.preload_handle(STREAM_KERNEL, STREAM_DATASET, BIND_SCALE)
        parent = self.service.bind(
            BindRequest(spec=self.spec, dataset=STREAM_DATASET, scale=BIND_SCALE)
        )
        if parent.status != "ok":
            raise RuntimeError(f"parent bind failed: {parent.error}")
        # Chains replay the same deltas; a memoised verdict from the last
        # chain would let this one skip its mandatory re-verification.
        clear_verification_memo()
        self._patched = self._counter("delta_patched")

    def execute(self, op: Op):
        from repro.service import BindRequest

        _chain, epoch = op.item
        published = self.service.advance_epoch(
            STREAM_KERNEL, STREAM_DATASET, BIND_SCALE, self.deltas[epoch - 1]
        )
        return self.service.bind(
            BindRequest(
                spec=self.spec,
                dataset=STREAM_DATASET,
                scale=BIND_SCALE,
                epoch=published,
            )
        )

    def check(self, op: Op, response) -> bool:
        _chain, epoch = op.item
        patched = self._counter("delta_patched")
        was_patched = patched == self._patched + 1
        self._patched = patched
        if response.status != "ok":
            return self.fail(op, f"status {response.status}: {response.error}")
        if response.epoch != epoch:
            return self.fail(op, f"served epoch {response.epoch}, wanted {epoch}")
        if not was_patched:
            return self.fail(
                op,
                "rebind was not patched (fallbacks so far: "
                f"{self._counter('delta_fallback')})",
            )
        if not (response.report or {}).get("verified"):
            return self.fail(op, "patched bind was not re-verified")
        if response.fingerprints != self.expected[epoch - 1]:
            return self.fail(op, "digests differ from a cold bind of the child")
        return True

    def decompose(self, op: Op, tracer) -> None:
        from benchmarks.e2e.layers import decompose_stream_rebind

        decompose_stream_rebind(self, op, tracer)

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (ColdBind, WarmServe, ExecSteps, StreamRebind)
}
