"""Per-layer measurements and per-op decompositions of the traced run.

Everything here is timed from the harness, around public calls into one
layer at a time (spans inside the program are a later issue).  Layer names
are the ``repro`` sub-package names.  ``measure_layers`` produces the
workload-independent layer metrics of ``metrics.PER_LAYER``; the
``decompose_*`` functions re-issue one op's constituent calls in order,
each in a child span, for the seeded sample of ops a traced round picks.
The inspector is never re-implemented here: a cold op's inspector span is
the program's own ``ComposedInspector.run`` with the program's own
``StageRecord`` times as child spans, and the ``transforms.*`` metrics are
the public transform functions called on the arrays a bind of the earlier
steps returns.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from contextlib import nullcontext
from typing import Callable, Dict

import numpy as np

from benchmarks.e2e import workloads as wl

#: Repeats of a layer timing; the median is reported.
REPEATS = 5

#: Epochs of the one long chain behind ``incremental.depth_ratio``.
DEPTH_EPOCHS = 24


def median_ms(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def once_ms(fn: Callable[[], object]):
    start = time.perf_counter()
    out = fn()
    return (time.perf_counter() - start) * 1e3, out


# ---------------------------------------------------------------------------
# The public transform functions, on the index arrays their stages see


def _no_span(_name):
    return nullcontext()


def stage_inputs(spec: dict, data, index: int):
    """The data and tiling that stage ``index`` of ``spec`` sees: a bind of
    the steps before it."""
    from repro.runtime import plan_from_spec

    if index == 0:
        return data, None
    prefix = plan_from_spec({**spec, "steps": spec["steps"][:index]}).bind(data)
    return prefix.transformed, prefix.tiling


def bare_transform(step, data, tiling):
    """The transform function behind ``step``: its name in
    ``repro.transforms`` and a call of it on ``data``'s index arrays,
    without the inspector's index adjustment around it."""
    from repro.runtime import (
        CPackStep,
        FullSparseTilingStep,
        GPartStep,
        LexGroupStep,
        TilePackStep,
    )
    from repro.runtime.inspector import dependence_edges
    from repro.transforms import (
        block_partition,
        cpack,
        full_sparse_tiling,
        gpart,
        lexgroup,
        tilepack,
    )

    nodes = data.num_nodes
    if isinstance(step, CPackStep):
        return "cpack", lambda: cpack(
            data.interaction_access_map().flat_locations(), nodes
        )
    if isinstance(step, GPartStep):
        return "gpart", lambda: gpart(
            data.interaction_access_map(), step.partition_size
        )
    if isinstance(step, LexGroupStep):
        return "lexgroup", lambda: lexgroup(data.interaction_access_map())
    if isinstance(step, TilePackStep):
        return "tilepack", lambda: tilepack(
            tiling, data.node_loop_positions()[0], nodes
        )
    if isinstance(step, FullSparseTilingStep):
        # With use_symmetry, one traversed edge set and the others declared
        # symmetric with it (Section 6, as full_sparse_tiling documents).
        edges = dependence_edges(data)
        symmetric = {}
        if step.use_symmetry:
            first = min(edges)
            symmetric = {pair: first for pair in edges if pair != first}
            edges = {first: edges[first]}
        return "fst", lambda: full_sparse_tiling(
            data.loop_sizes(),
            data.interaction_loop_position(),
            block_partition(data.num_inter, step.seed_block_size),
            edges,
            symmetric_with=symmetric or None,
        )
    raise ValueError(f"no bare transform call for step {step!r}")


def bare_transform_ms(spec: dict, data) -> Dict[str, float]:
    """Median milliseconds of each step's bare transform call, summed per
    transform name (a composition may run one transform twice)."""
    from repro.runtime import plan_from_spec

    out: Dict[str, float] = {}
    for index, step in enumerate(plan_from_spec(spec).steps):
        staged, tiling = stage_inputs(spec, data, index)
        name, call = bare_transform(step, staged, tiling)
        if name == "fst":
            # The edge sets above are built here, not taken from the
            # program: hold the bare call's tiling equal to the stage's.
            _, stage_tiling = stage_inputs(spec, data, index + 1)
            if not all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(call().tiles, stage_tiling.tiles)
            ):
                raise RuntimeError("bare full_sparse_tiling differs from the fst stage")
        out[name] = out.get(name, 0.0) + median_ms(call)
    return out


# ---------------------------------------------------------------------------
# Per-op decompositions (traced round)


def _decomposed(tracer, op, issue):
    """Re-issue an op's calls under a ``decomposed`` span; returns what
    ``issue`` returns.

    Two things make the re-issue cost what the op's own calls cost.  It
    runs on the tracer's helper thread: the service binds on a worker
    thread, and the same ``plan.bind`` called from the client thread was
    measured 10% slower.  And it runs once untraced first: after a round's
    worth of frees the allocator serves the real op from recycled pages,
    while a first re-issue on top of the op's retained result faults in
    fresh ones (another 5%).
    """
    tracer.call(issue, _no_span)
    with tracer.span("decomposed", op.id, layer="harness"):
        return tracer.call(issue, lambda name: tracer.span(name, op.id))


def _bind_prefix(workload, key, span):
    """parse -> handle -> validate -> fingerprint, shared by cold and warm."""
    from repro.plancache import bind_fingerprint
    from repro.runtime import plan_from_spec, validate_kernel_data

    data = workload.data[key.kernel, key.dataset]
    with span("service.parse"):
        plan = plan_from_spec(key.spec)
    with span("service.handle_resolve"):
        workload.service.preload_handle(key.kernel, key.dataset, wl.BIND_SCALE)
    with span("runtime.validate"):
        validate_kernel_data(data, policy=plan.validation)
    with span("plancache.fingerprint"):
        cache_key = bind_fingerprint(plan, data)
    return plan, data, cache_key


def decompose_cold_bind(workload, op, tracer) -> None:
    from repro.plancache import PlanCache, memo
    from repro.runtime import verify_numeric_equivalence
    from repro.service import result_digests

    key = op.item

    def issue(span):
        shadow = PlanCache(use_disk=False, memory_budget_bytes=wl.RESIDENT_BUDGET_BYTES)
        plan, data, cache_key = _bind_prefix(workload, key, span)
        with span("plancache.get"):
            shadow.get(cache_key)
        with span("runtime.inspector") as inspector_span:
            result = plan.build_inspector().run(data)
        if inspector_span is not None:
            tracer.add_stages(inspector_span, result.report.stages)
        with span("plancache.put"):
            memo.store(shadow, cache_key, result, plan.steps)
        with span("runtime.verify"):
            verify_numeric_equivalence(data, result)
        with span("service.digest"):
            return result, result_digests(result)

    result, digests = _decomposed(tracer, op, issue)
    if digests != workload.golden[key.id]:
        raise RuntimeError(f"re-issued inspector diverged from the bind of {key.id}")
    tracer.count("runtime.touches", result.total_touches)


def decompose_warm_serve(workload, op, tracer) -> None:
    from repro.plancache import memo
    from repro.service import result_digests

    key = op.item

    def issue(span):
        _plan, data, cache_key = _bind_prefix(workload, key, span)
        with span("plancache.get"):
            entry = workload.cache.get(cache_key)
        with span("plancache.rehydrate"):
            result = memo.entry_to_result(entry, data)
        with span("service.digest"):
            return result_digests(result)

    if _decomposed(tracer, op, issue) != workload.golden[key.id]:
        raise RuntimeError(f"rehydrated entry diverged from the bind of {key.id}")
    tracer.count("plancache.hits", 1)


def decompose_exec_steps(workload, op, tracer) -> None:
    from repro.lowering import compile_executor

    kernel, shape = op.item
    layout, backend = shape.split("-", 1)
    case = workload.cases[kernel]

    def issue(span):
        wl.restore_payload(case)
        with span("lowering.compile_lookup"):
            compile_executor(kernel, backend=backend, tiled=layout == "tiled")
        with span("lowering.run"):
            wl.run_exec_shape(case, shape, wl.EXEC_STEPS[shape])

    _decomposed(tracer, op, issue)
    tracer.count("lowering.steps", wl.EXEC_STEPS[shape])


def decompose_stream_rebind(workload, op, tracer) -> None:
    from repro.incremental import repair_tile_dag
    from repro.plancache import bind_fingerprint, dataset_fingerprint
    from repro.runtime import (
        clear_verification_memo,
        plan_from_spec,
        verify_numeric_equivalence,
    )
    from repro.service import result_digests

    _chain, epoch = op.item
    parent = workload.datasets[epoch - 1]
    child = workload.datasets[epoch]
    delta = workload.deltas[epoch - 1]
    child_key = bind_fingerprint(plan_from_spec(workload.spec), child)

    def issue(span):
        # The real op stored the child entry and memoised its verdict; drop
        # both so the re-issued rebind patches again instead of hitting.
        workload.cache.discard(child_key)
        clear_verification_memo()
        with span("incremental.delta_apply"):
            applied = delta.apply(parent)
        with span("plancache.fingerprint"):
            dataset_fingerprint(applied)
        with span("service.parse"):
            plan = plan_from_spec(workload.spec)
        with span("incremental.rebind"):
            result = plan.rebind(
                parent, delta, cache=workload.cache, child_data=applied
            )
        with span("service.digest"):
            return result, result_digests(result)

    result, digests = _decomposed(tracer, op, issue)
    if result.delta_info["mode"] != "patched":
        raise RuntimeError(f"re-issued rebind was {result.delta_info}")
    if digests != workload.expected[epoch - 1]:
        raise RuntimeError("re-issued rebind diverged from the cold bind")
    # Parts of the rebind that can be called on their own; siblings of the
    # decomposition, not children, so they are not counted twice.
    with tracer.span("detached", op.id, layer="harness"):
        with tracer.span("incremental.reverify", op.id):
            verify_numeric_equivalence(child, result)
        with tracer.span("incremental.dag_repair", op.id):
            repair_tile_dag(None, result.tiling, result.transformed)
    tracer.count("incremental.touches", result.total_touches)


# ---------------------------------------------------------------------------
# Workload-independent layer metrics


def measure_layers(workdir) -> Dict[str, float]:
    """Every ``metrics.PER_LAYER`` entry outside the ``harness.`` group."""
    out: Dict[str, float] = {}
    out.update(_fleet_layers(workdir))  # first: forks while the heap is small
    out.update(_bind_path_layers(workdir))
    out.update(_compile_time_layers(workdir))
    out.update(_executor_layers())
    out.update(_cachesim_layers())
    out.update(_incremental_layers())
    return out


def _fleet_layers(workdir) -> Dict[str, float]:
    """FleetService, informational: two shard processes on two shared
    cores are too noisy to gate (the rejected first benchmark's 10%)."""
    from repro.service import BindRequest, FleetConfig, FleetService

    scale = 64  # tiny: the round trip, not the bind, is what is measured
    spec = {"kernel": "moldyn", "steps": ["cpack", "lexgroup"]}
    cache_dir = tempfile.mkdtemp(prefix="fleet-", dir=workdir)
    start = time.perf_counter()
    fleet = FleetService(FleetConfig(shards=2, cache_dir=cache_dir)).start()
    try:
        fleet.preload_handle("moldyn", "mol1", scale)
        spawn_s = time.perf_counter() - start
        request = lambda: fleet.bind(  # noqa: E731
            BindRequest(spec=dict(spec), dataset="mol1", scale=scale)
        )
        first = request()
        if first.status != "ok":
            raise RuntimeError(f"fleet bind failed: {first.error}")
        roundtrip = median_ms(request)
    finally:
        fleet.stop()
    return {
        "service.fleet_spawn_s": spawn_s,
        "service.fleet_roundtrip_ms": roundtrip,
    }


def _bind_path_layers(workdir) -> Dict[str, float]:
    """service, plancache, runtime and transforms on moldyn/mol1 at the
    bind scale, compositions cpack+fst (and gpart+fst for GPART)."""
    from repro.kernels import generate_dataset, make_kernel_data
    from repro.plancache import DiskStore, bind_fingerprint, memo
    from repro.runtime import (
        plan_from_spec,
        validate_kernel_data,
        verify_numeric_equivalence,
    )
    from repro.runtime.inspector import dependence_edges
    from repro.service import BindRequest, result_digests
    from repro.transforms import tile_wavefronts

    out: Dict[str, float] = {}
    gen_ms, dataset = once_ms(lambda: generate_dataset("mol1", scale=wl.BIND_SCALE))
    out["kernels.dataset_gen_s"] = gen_ms / 1e3
    data = make_kernel_data("moldyn", dataset)
    spec = wl.composition_spec("moldyn", "cpack+fst", data)
    gpart_spec = wl.composition_spec("moldyn", "gpart+fst", data)

    out["service.parse_ms"] = median_ms(lambda: plan_from_spec(spec))
    plan = plan_from_spec(spec)
    out["runtime.validate_ms"] = median_ms(lambda: validate_kernel_data(data))
    out["plancache.fingerprint_ms"] = median_ms(lambda: bind_fingerprint(plan, data))

    # Inspector: the real cold run, then each stage's transform function
    # alone on the arrays that stage sees; the difference is the
    # inspector's own index adjustment, payload moves and state set-up.
    inspector = plan.build_inspector()
    out["runtime.inspector_ms"] = median_ms(lambda: inspector.run(data), 3)
    result = inspector.run(data)
    bare = bare_transform_ms(spec, data)
    for name in ("cpack", "lexgroup", "fst", "tilepack"):
        out[f"transforms.{name}_ms"] = bare[name]
    out["transforms.schedule_ms"] = median_ms(result.tiling.schedule)
    out["runtime.inspector_self_ms"] = (
        out["runtime.inspector_ms"]
        - sum(bare.values())
        - out["transforms.schedule_ms"]
    )
    out["transforms.gpart_ms"] = bare_transform_ms(gpart_spec, data)["gpart"]
    edges = dependence_edges(result.transformed)
    out["transforms.wavefront_ms"] = median_ms(
        lambda: tile_wavefronts(result.tiling, edges), 3
    )
    out["runtime.verify_ms"] = median_ms(
        lambda: verify_numeric_equivalence(data, result), 3
    )
    out["runtime.touches"] = float(result.total_touches)
    out["runtime.data_moves"] = float(result.data_moves)
    out["service.digest_ms"] = median_ms(lambda: result_digests(result))

    # Plan cache, memory and disk tiers, on this bind's entry.
    cache_key = bind_fingerprint(plan, data)
    entry = memo.result_to_entry(result, plan.steps)
    # Array bytes only: the entry's JSON metadata carries stage timings,
    # whose printed length differs from run to run.
    out["plancache.entry_bytes"] = float(
        sum(array.nbytes for array in entry.arrays.values())
    )
    service = wl.new_service(memory_budget_bytes=wl.RESIDENT_BUDGET_BYTES)
    try:
        cache = service.cache
        out["plancache.put_ms"] = median_ms(lambda: cache.put("probe-key", entry))
        cache.discard("probe-key")
        service.preload_handle("moldyn", "mol1", wl.BIND_SCALE)
        out["service.handle_resolve_ms"] = median_ms(
            lambda: service.preload_handle("moldyn", "mol1", wl.BIND_SCALE)
        )
        request = lambda: BindRequest(  # noqa: E731
            spec=spec, dataset="mol1", scale=wl.BIND_SCALE
        )

        # Single-flight: 8 identical cold submits from one thread, one bind.
        before = service.stats()["counters"]
        start = time.perf_counter()
        tickets = [service.submit(request()) for _ in range(8)]
        responses = [service.wait(ticket) for ticket in tickets]
        out["service.coalesce_fanout_ms"] = (time.perf_counter() - start) * 1e3
        after = service.stats()
        if any(r.status != "ok" for r in responses):
            raise RuntimeError("coalesced bind failed")
        coalesced = after["counters"].get("coalesced", 0) - before.get("coalesced", 0)
        out["service.coalesced_ratio"] = coalesced / len(tickets)

        # Warm hits: through the service, and the same bind called directly.
        served = [service.bind(request()) for _ in range(REPEATS * 2)]
        if any(r.cache != "hit" for r in served):
            raise RuntimeError("warm service bind missed")
        out["service.queue_ms"] = statistics.median(
            r.timing["queue_ms"] for r in served
        )
        service_ms = median_ms(lambda: service.bind(request()), REPEATS * 2)
        direct_ms = median_ms(lambda: plan.bind(data, cache=cache), REPEATS * 2)
        out["service.frontend_self_ms"] = service_ms - direct_ms
        out["plancache.get_hit_ms"] = median_ms(lambda: cache.get(cache_key))
        hit = cache.get(cache_key)
        out["plancache.rehydrate_ms"] = median_ms(
            lambda: memo.entry_to_result(hit, data)
        )
        out["plancache.hit_ratio"] = cache.stats.hit_rate
        out["plancache.resident_bytes"] = float(cache.memory.total_bytes)
        out["service.accounting_violations"] = float(
            not service.stats()["accounting_ok"]
        )
    finally:
        service.stop()

    disk = DiskStore(tempfile.mkdtemp(prefix="disk-", dir=workdir))
    out["plancache.disk_put_ms"] = median_ms(lambda: disk.put(cache_key, entry), 3)
    out["plancache.disk_get_ms"] = median_ms(lambda: disk.get(cache_key), 3)
    return out


def _compile_time_layers(workdir) -> Dict[str, float]:
    """uniform, analysis, codegen and cold/warm executor compiles."""
    from repro.analysis import analyze_plan, verify_executor
    from repro.codegen import (
        compile_source,
        generate_executor_source,
        generate_inspector_source,
    )
    from repro.kernels import generate_dataset, kernel_by_name, make_kernel_data
    from repro.lowering import compile_executor
    from repro.runtime import plan_from_spec

    out: Dict[str, float] = {}
    data = make_kernel_data("moldyn", generate_dataset("mol1", scale=64))
    plan = plan_from_spec(wl.composition_spec("moldyn", "cpack+fst", data))
    out["uniform.plan_ms"], _ = once_ms(plan.plan)
    out["analysis.lint_ms"] = median_ms(lambda: analyze_plan(plan), 3)
    out["analysis.irverify_ms"], report = once_ms(
        lambda: verify_executor("moldyn", tiled=True)
    )
    if not report.proven:
        raise RuntimeError("IR verifier did not prove the tiled moldyn executor")

    kernel = kernel_by_name("moldyn")
    out["codegen.inspector_gen_ms"] = median_ms(
        lambda: generate_inspector_source(kernel, plan.steps)
    )
    generated = compile_source(
        generate_executor_source(kernel, function_name="run"), "run"
    )
    arrays = {name: values.copy() for name, values in data.arrays.items()}
    out["codegen.generated_step_ms"] = median_ms(
        lambda: generated(
            num_steps=1, num_nodes=data.num_nodes, num_inter=data.num_inter,
            left=data.left, right=data.right, **arrays,
        ),
        3,
    )

    # Cold and warm compiles against a private artifact store (memo off).
    store = tempfile.mkdtemp(prefix="artifacts-", dir=workdir)
    compile_tiled = lambda backend: compile_executor(  # noqa: E731
        "moldyn", backend=backend, tiled=True, cache_dir=store, memo=False
    )
    out["lowering.compile_cold_ms.numpy"], _ = once_ms(lambda: compile_tiled("numpy"))
    out["lowering.compile_cold_ms.c"], cold = once_ms(lambda: compile_tiled("c"))
    out["lowering.compile_warm_ms.c"], warm = once_ms(lambda: compile_tiled("c"))
    if cold.from_cache or not warm.from_cache or not warm.proof_from_cache:
        raise RuntimeError("artifact store did not behave cold-then-warm")
    # The proof alone, warm: an untiled bind reads its own cold proof back.
    compile_executor("moldyn", backend="numpy", cache_dir=store, memo=False)
    out["analysis.irverify_warm_ms"], _ = once_ms(
        lambda: compile_executor("moldyn", backend="numpy", cache_dir=store, memo=False)
    )
    return out


def _executor_layers() -> Dict[str, float]:
    """lowering and kernels step times on moldyn at the exec_steps scale."""
    from repro.kernels import generate_dataset
    from repro.lowering import compile_executor
    from repro.lowering.schedule import tile_dag_from_tiling
    from repro.runtime import run_numeric_wavefront
    from repro.runtime.inspector import dependence_edges

    out: Dict[str, float] = {}
    case = wl.build_exec_case(
        "moldyn", generate_dataset("mol1", scale=wl.EXEC_SCALE)
    )
    edges = dependence_edges(case.result.transformed)
    out["lowering.dag_build_ms"], dag = once_ms(
        lambda: tile_dag_from_tiling(case.result.tiling, edges, waves=case.waves)
    )

    def steps_ms(run, num_steps: int) -> float:
        samples = []
        for _ in range(REPEATS):
            wl.restore_payload(case)
            start = time.perf_counter()
            run(num_steps)
            samples.append((time.perf_counter() - start) * 1e3)
        return statistics.median(samples)

    def per_step(run) -> float:
        return (steps_ms(run, 5) - steps_ms(run, 1)) / 4

    shapes = {
        "lowering.step_ms.untiled-numpy": "untiled-numpy",
        "lowering.step_ms.untiled-c": "untiled-c",
        "lowering.step_ms.tiled-numpy": "tiled-numpy",
        "lowering.step_ms.tiled-c": "tiled-c",
        "kernels.step_ms.library": "untiled-library",
        "kernels.wavefront_step_ms.library": "tiled-library",
    }
    for name, shape in shapes.items():
        out[name] = per_step(lambda n, s=shape: wl.run_exec_shape(case, s, n))
    # Per-call cost of the tiled C entry point (CSR flattening of the
    # schedule on every call): the 1-step / 5-step intercept.
    tiled_c = lambda n: wl.run_exec_shape(case, "tiled-c", n)  # noqa: E731
    out["lowering.call_overhead_ms.tiled-c"] = (
        steps_ms(tiled_c, 1) - out["lowering.step_ms.tiled-c"]
    )
    compile_executor("moldyn", backend="c", tiled=True, scheduler="dynamic")
    out["lowering.step_ms.dynamic-c-t1"] = per_step(
        lambda n: run_numeric_wavefront(
            case.result.transformed, case.schedule, case.waves, num_steps=n,
            backend="c", scheduler="dynamic", dag=dag, num_threads=1,
        )
    )
    return out


def cachesim_ratios() -> Dict[str, float]:
    """Composed / baseline simulated cycles per kernel: exact counts, the
    guard that a faster inspector did not buy speed with a worse ordering."""
    from repro.cachesim import machine_by_name, simulate_cost
    from repro.kernels import generate_dataset, make_kernel_data
    from repro.runtime import emit_trace, plan_from_spec

    machine = machine_by_name(wl.MACHINE)
    dataset = generate_dataset("mol1", scale=wl.BIND_SCALE)
    ratios = {}
    for kernel in wl.KERNELS:
        data = make_kernel_data(kernel, dataset)
        plan = plan_from_spec(wl.composition_spec(kernel, "cpack+fst", data))
        result = plan.bind(data)
        base = simulate_cost(emit_trace(data), machine).cycles
        composed = simulate_cost(
            emit_trace(result.transformed, result.plan), machine
        ).cycles
        ratios[kernel] = composed / base
    return ratios


def _cachesim_layers() -> Dict[str, float]:
    from repro.cachesim import machine_by_name, simulate_cost
    from repro.kernels import generate_dataset, make_kernel_data
    from repro.runtime import emit_trace

    out = {
        f"cachesim.cycles_ratio.{kernel}": ratio
        for kernel, ratio in cachesim_ratios().items()
    }
    golden = wl.load_golden()["cachesim_cycles_ratio"]
    for kernel, ratio in golden.items():
        if out[f"cachesim.cycles_ratio.{kernel}"] != ratio:
            raise RuntimeError(
                f"cachesim.cycles_ratio.{kernel} = "
                f"{out[f'cachesim.cycles_ratio.{kernel}']!r}, golden {ratio!r}"
            )
    data = make_kernel_data(
        "moldyn", generate_dataset("mol1", scale=wl.BIND_SCALE)
    )
    trace = emit_trace(data)
    machine = machine_by_name(wl.MACHINE)
    out["cachesim.simulate_ms"] = median_ms(lambda: simulate_cost(trace, machine), 3)
    return out


def _incremental_layers() -> Dict[str, float]:
    """One long chain on a direct cache: the parts of a rebind, the touch
    ledger against a cold bind, and how rebind time grows with depth."""
    from repro.incremental import repair_tile_dag
    from repro.kernels import generate_dataset, make_kernel_data
    from repro.plancache import PlanCache
    from repro.runtime import plan_from_spec, verify_numeric_equivalence
    from repro.runtime.faults import make_drift_delta

    out: Dict[str, float] = {}
    data = make_kernel_data(
        wl.STREAM_KERNEL, generate_dataset(wl.STREAM_DATASET, scale=wl.BIND_SCALE)
    )
    plan = plan_from_spec(
        wl.composition_spec(wl.STREAM_KERNEL, wl.STREAM_COMPOSITION, data)
    )
    cache = PlanCache(use_disk=False, memory_budget_bytes=wl.RESIDENT_BUDGET_BYTES)
    plan.bind(data, cache=cache)
    rebind_ms, apply_ms, validate_ms, cold_ms = [], [], [], []
    touch_ratio = 0.0
    parent = data
    for epoch in range(1, DEPTH_EPOCHS + 1):
        delta = make_drift_delta(
            parent, edge_rate=wl.STREAM_EDGE_RATE, move_rate=wl.STREAM_MOVE_RATE,
            seed=epoch,
        )
        ms, _ = once_ms(lambda: delta.validate(parent))
        validate_ms.append(ms)
        ms, child = once_ms(lambda: delta.apply(parent))
        apply_ms.append(ms)
        ms, result = once_ms(
            lambda: plan.rebind(parent, delta, cache=cache, child_data=child)
        )
        rebind_ms.append(ms)
        if epoch <= 3:
            ms, cold = once_ms(lambda: plan.bind(child))
            cold_ms.append(ms)
            touch_ratio = result.total_touches / cold.total_touches
        parent = child
    out["incremental.rebind_ms"] = statistics.median(rebind_ms[:8])
    out["incremental.delta_apply_ms"] = statistics.median(apply_ms)
    out["incremental.delta_validate_ms"] = statistics.median(validate_ms)
    out["incremental.depth_ratio"] = statistics.median(
        rebind_ms[16:24]
    ) / statistics.median(rebind_ms[:8])
    out["incremental.speedup_vs_cold"] = (
        statistics.median(cold_ms) / out["incremental.rebind_ms"]
    )
    out["incremental.touch_ratio"] = touch_ratio
    stats = cache.stats
    out["incremental.patched_ratio"] = stats.delta_patched / max(
        1, stats.delta_patched + stats.delta_fallbacks
    )
    out["incremental.reverify_ms"] = median_ms(
        lambda: verify_numeric_equivalence(parent, result), 3
    )
    out["incremental.dag_repair_ms"] = median_ms(
        lambda: repair_tile_dag(None, result.tiling, result.transformed), 3
    )
    # advance_epoch on a service: apply + fingerprint under the handles lock.
    service = wl.new_service()
    try:
        service.preload_handle(wl.STREAM_KERNEL, wl.STREAM_DATASET, wl.BIND_SCALE)
        first = make_drift_delta(
            data, edge_rate=wl.STREAM_EDGE_RATE, move_rate=wl.STREAM_MOVE_RATE,
            seed=1,
        )
        out["service.epoch_advance_ms"], _ = once_ms(
            lambda: service.advance_epoch(
                wl.STREAM_KERNEL, wl.STREAM_DATASET, wl.BIND_SCALE, first
            )
        )
    finally:
        service.stop()
    return out
