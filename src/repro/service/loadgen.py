"""Closed-loop load generator for the bind service.

Drives a bind service (either one — both are a
:class:`~repro.service.core.ServiceCore`) the way a fleet of clients
would: ``clients`` threads each submit one request, wait for its
response, and immediately submit the next (closed loop — the outstanding
request count is bounded by the client count, so the generator measures
the service's latency under a fixed concurrency, not an unbounded
arrival queue).

The generator records client-side latency per request, aggregates
p50/p95/p99, and returns every response — the service benchmarks use the
responses' content digests to prove each answer bit-identical to a
direct ``CompositionPlan.bind()``, and the coalesced/cache provenance to
prove single-flight engaged.  ``repro bench-serve`` and
``benchmarks/bench_ext_service.py`` both run on this module.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.service.core import ServiceCore
from repro.service.request import BindRequest, BindResponse
from repro.service.telemetry import Histogram


def duplicate_heavy_requests(
    specs: List[dict],
    dataset: str,
    scale: Optional[int],
    total: int,
    **request_kwargs,
) -> List[BindRequest]:
    """A duplicate-heavy workload: ``total`` requests round-robined over
    ``specs`` — with few distinct specs and many requests, almost every
    request duplicates an earlier one (the coalescing stress shape)."""
    return [
        BindRequest(
            spec=dict(specs[i % len(specs)]),
            dataset=dataset,
            scale=scale,
            **request_kwargs,
        )
        for i in range(total)
    ]


def run_load(
    service: ServiceCore,
    requests: List[BindRequest],
    clients: int = 8,
) -> dict:
    """Run ``requests`` through ``service`` with ``clients`` closed-loop
    client threads; returns throughput, latency percentiles, outcome
    counts, and the raw responses (submission order is per-client
    interleaved, as real traffic would be)."""
    clients = max(1, min(int(clients), len(requests) or 1))
    latency = Histogram()
    responses: List[Optional[BindResponse]] = [None] * len(requests)
    next_index = {"value": 0}
    index_lock = threading.Lock()
    telemetry = service.telemetry

    def client_loop() -> None:
        while True:
            with index_lock:
                index = next_index["value"]
                if index >= len(requests):
                    return
                next_index["value"] = index + 1
            start = telemetry.now()
            response = service.bind(requests[index])
            latency.observe((telemetry.now() - start) * 1e3)
            responses[index] = response

    threads = [
        threading.Thread(target=client_loop, name=f"loadgen-client-{i}")
        for i in range(clients)
    ]
    wall_start = telemetry.now()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = telemetry.now() - wall_start

    completed = [r for r in responses if r is not None]
    ok = [r for r in completed if r.status == "ok"]
    errors: Dict[str, int] = {}
    for r in completed:
        if r.status != "ok" and r.error:
            name = r.error.get("type", "unknown")
            errors[name] = errors.get(name, 0) + 1
    return {
        "requests": len(requests),
        "clients": clients,
        "wall_s": wall_s,
        "throughput_rps": (len(completed) / wall_s) if wall_s > 0 else 0.0,
        "ok": len(ok),
        "coalesced_responses": sum(1 for r in ok if r.coalesced),
        "cache_hits": sum(1 for r in ok if r.cache == "hit"),
        "errors": errors,
        "latency": latency.summary(),
        "responses": responses,
    }


def _distinct_specs(distinct: int) -> List[dict]:
    """``distinct`` plan specs that share nothing cache-wise (the fst
    seed block size is a fingerprinted step parameter)."""
    return [
        {
            "kernel": "moldyn",
            "name": f"serve-{index}",
            "steps": [
                {"type": "cpack"},
                {"type": "lexgroup"},
                {"type": "fst", "seed_block_size": 32 * (index + 1)},
            ],
        }
        for index in range(distinct)
    ]


def coalescing_benchmark(
    requests: int = 48,
    distinct: int = 2,
    clients: int = 16,
    workers: int = 2,
    scale: int = 32,
    dataset: str = "mol1",
    specs: Optional[List[dict]] = None,
) -> dict:
    """Measure single-flight coalescing: same duplicate-heavy workload,
    coalescing enabled vs disabled.

    Runs **without** a plan cache on purpose: the cache amortizes
    *repeat* binds after a flight completes, coalescing amortizes
    *concurrent* binds while one is in flight — disabling the cache
    isolates the mechanism under test (with a cache, the disabled run
    would mostly measure warm-bind rehydration instead).

    Also proves the service contract: every OK response's content
    digests equal a direct ``CompositionPlan.bind()`` of the same spec,
    and the admission counters account for every request.
    """
    from repro.kernels.data import make_kernel_data
    from repro.kernels.datasets import generate_dataset
    from repro.runtime.planspec import plan_from_spec
    from repro.service.server import PlanService, ServiceConfig

    specs = specs if specs is not None else _distinct_specs(distinct)
    distinct = len(specs)

    # Ground truth: one direct bind per distinct spec.
    expected: List[Dict[str, str]] = []
    data_cache: Dict[str, object] = {}
    for spec in specs:
        plan = plan_from_spec(spec)
        data = data_cache.get(plan.kernel.name)
        if data is None:
            data = data_cache[plan.kernel.name] = make_kernel_data(
                plan.kernel.name, generate_dataset(dataset, scale=scale)
            )
        from repro.service.request import result_digests

        expected.append(result_digests(plan.bind(data)))

    modes = {}
    for label, coalesce in (("enabled", True), ("disabled", False)):
        config = ServiceConfig(
            workers=workers,
            queue_depth=max(requests, 1),
            overload="block",
            coalesce=coalesce,
        )
        workload = duplicate_heavy_requests(specs, dataset, scale, requests)
        with PlanService(config, cache=None) as service:
            for spec in specs:
                service.preload_handle(
                    plan_from_spec(spec).kernel.name, dataset, scale
                )
            run = run_load(service, workload, clients=clients)
            stats = service.stats()
        mismatches = sum(
            1
            for index, response in enumerate(run["responses"])
            if response is None
            or response.status != "ok"
            or response.fingerprints != expected[index % distinct]
        )
        run.pop("responses")
        modes[label] = {
            **run,
            "binds_executed": stats["counters"].get("binds_executed", 0),
            "counters": stats["counters"],
            "accounting_ok": stats["accounting_ok"],
            "digest_mismatches": mismatches,
        }

    enabled, disabled = modes["enabled"], modes["disabled"]
    return {
        "requests": requests,
        "distinct_specs": distinct,
        "clients": clients,
        "workers": workers,
        "scale": scale,
        "dataset": dataset,
        "enabled": enabled,
        "disabled": disabled,
        "throughput_ratio": (
            enabled["throughput_rps"] / disabled["throughput_rps"]
            if disabled["throughput_rps"] > 0
            else float("inf")
        ),
        "bit_identical": (
            enabled["digest_mismatches"] == 0
            and disabled["digest_mismatches"] == 0
        ),
    }


def streaming_benchmark(
    epochs: int = 6,
    requests_per_epoch: int = 8,
    clients: int = 4,
    workers: int = 2,
    scale: int = 32,
    dataset: str = "mol1",
    drift: float = 0.02,
    max_staleness: int = 1,
    seed: int = 0,
    spec: Optional[dict] = None,
) -> dict:
    """The streaming workload: an epoch-advancing closed loop.

    Models a time-stepped simulation serving reads while its dataset
    drifts: each epoch the driver (1) probes the *next* epoch before it
    is published — served stale-but-within-tolerance from the current
    one under ``max_staleness`` — then (2) publishes a deterministic
    drift delta via ``advance_epoch`` (the single-flight invalidation
    path) and (3) runs a closed-loop batch of clients pinned to the new
    epoch, which the service binds through the **incremental
    delta-bind engine** against the retained parent.

    The contract checked end to end: every fresh response's digests
    equal a direct ``CompositionPlan.bind()`` of the mutated dataset at
    that epoch, every stale response's digests equal the *previous*
    epoch's ground truth (stale answers are exact, just old), the
    admission counters account for every request, and the plan cache
    records the patched/fallback split so the amortization is measured.
    ``repro bench-serve --streaming`` runs on this.
    """
    from repro.kernels.data import make_kernel_data
    from repro.kernels.datasets import generate_dataset
    from repro.plancache import PlanCache
    from repro.runtime.faults import make_drift_delta
    from repro.runtime.planspec import plan_from_spec
    from repro.service.request import result_digests
    from repro.service.server import PlanService, ServiceConfig

    if spec is None:
        spec = {
            "kernel": "moldyn",
            "name": "stream",
            "steps": [
                {"type": "cpack"},
                {"type": "lexgroup"},
                {"type": "fst", "seed_block_size": 32},
            ],
        }
    plan = plan_from_spec(spec)
    kernel = plan.kernel.name

    # Parent + every child epoch must coexist in the memory tier for the
    # delta engine to find its parent bind.
    cache = PlanCache(use_disk=False, memory_budget_bytes=1 << 31)
    config = ServiceConfig(
        workers=workers, queue_depth=max(requests_per_epoch, 4),
        overload="block",
    )
    mismatches = 0
    stale_mismatches = 0
    stale_ok = 0
    ok = 0
    total_requests = 0
    per_epoch: List[dict] = []

    with PlanService(config, cache=cache) as service:
        service.preload_handle(kernel, dataset, scale)
        # Ground truth we advance alongside the service.
        truth = make_kernel_data(kernel, generate_dataset(dataset, scale=scale))
        expected = result_digests(plan_from_spec(spec).bind(truth))

        for epoch in range(epochs + 1):
            if epoch > 0:
                # 1) Probe ahead of publication: the stale-serve mode.
                probe = BindRequest(
                    spec=dict(spec), dataset=dataset, scale=scale,
                    epoch=epoch, max_staleness=max_staleness,
                )
                response = service.bind(probe)
                total_requests += 1
                if response.status == "ok":
                    ok += 1
                    if response.stale:
                        stale_ok += 1
                        if response.fingerprints != expected:
                            stale_mismatches += 1

                # 2) Publish the next epoch (single-flight invalidation).
                delta = make_drift_delta(
                    truth, edge_rate=drift, move_rate=drift,
                    seed=seed * 100_003 + epoch,
                )
                service.advance_epoch(kernel, dataset, scale, delta)
                truth = delta.apply(truth)
                expected = result_digests(plan_from_spec(spec).bind(truth))

            # 3) Closed-loop batch pinned to the (new) current epoch.
            batch = [
                BindRequest(
                    spec=dict(spec), dataset=dataset, scale=scale,
                    epoch=epoch,
                )
                for _ in range(requests_per_epoch)
            ]
            run = run_load(service, batch, clients=clients)
            total_requests += len(batch)
            epoch_mismatches = 0
            for response in run["responses"]:
                if response is None or response.status != "ok":
                    continue
                ok += 1
                if response.fingerprints != expected:
                    epoch_mismatches += 1
            mismatches += epoch_mismatches
            per_epoch.append({
                "epoch": epoch,
                "ok": run["ok"],
                "coalesced": run["coalesced_responses"],
                "digest_mismatches": epoch_mismatches,
                "p50_ms": run["latency"]["p50_ms"],
            })

        stats = service.stats()

    counters = stats["counters"]
    return {
        "epochs": epochs,
        "requests_per_epoch": requests_per_epoch,
        "clients": clients,
        "workers": workers,
        "scale": scale,
        "dataset": dataset,
        "drift": drift,
        "max_staleness": max_staleness,
        "requests": total_requests,
        "ok": ok,
        "stale_served": counters.get("stale_served", 0),
        "stale_ok": stale_ok,
        "epochs_advanced": counters.get("epochs_advanced", 0),
        "delta_patched": cache.stats.delta_patched,
        "delta_fallbacks": cache.stats.delta_fallbacks,
        "delta_verify_failures": cache.stats.delta_verify_failures,
        "digest_mismatches": mismatches,
        "stale_digest_mismatches": stale_mismatches,
        "bit_identical": mismatches == 0 and stale_mismatches == 0,
        "counters": counters,
        "accounting_ok": stats["accounting_ok"],
        "latency": stats["histograms"].get("total_ms", {}),
        "per_epoch": per_epoch,
    }


def fleet_chaos_benchmark(
    requests: int = 64,
    distinct: int = 4,
    clients: int = 8,
    shards: int = 2,
    scale: int = 64,
    dataset: str = "mol1",
    kill_rate: float = 0.1,
    seed: int = 0,
    chaos=None,
    cache_dir: Optional[str] = None,
    max_retries: int = 4,
    specs: Optional[List[dict]] = None,
) -> dict:
    """Measure fleet availability and bit-identity under process chaos.

    Runs a duplicate-heavy workload through a
    :class:`~repro.service.fleet.FleetService` while a deterministic
    :class:`~repro.service.chaos.ChaosPlan` SIGKILLs workers mid-bind
    (``kill_rate`` per dispatch; pass ``chaos`` to run a richer
    campaign).  The availability contract: with retries and the shared
    disk L2, completion stays >= 99% at a 10% kill rate, and **every**
    OK response's SHA-256 digests are bit-identical to a direct
    ``CompositionPlan.bind()`` — recovery must be invisible.
    ``repro bench-serve --chaos`` and ``benchmarks/bench_ext_fleet.py``
    both run on this.
    """
    import tempfile

    from repro.kernels.data import make_kernel_data
    from repro.kernels.datasets import generate_dataset
    from repro.runtime.planspec import plan_from_spec
    from repro.service.chaos import ChaosPlan
    from repro.service.fleet import FleetConfig, FleetService
    from repro.service.request import result_digests

    specs = specs if specs is not None else _distinct_specs(distinct)
    distinct = len(specs)
    if chaos is None:
        chaos = ChaosPlan(seed=seed, kill_rate=kill_rate, kill_delay_s=0.005)

    # Ground truth: one direct bind per distinct spec (the no-fault run).
    expected: List[Dict[str, str]] = []
    data_cache: Dict[str, object] = {}
    for spec in specs:
        plan = plan_from_spec(spec)
        data = data_cache.get(plan.kernel.name)
        if data is None:
            data = data_cache[plan.kernel.name] = make_kernel_data(
                plan.kernel.name, generate_dataset(dataset, scale=scale)
            )
        expected.append(result_digests(plan.bind(data)))

    workload = duplicate_heavy_requests(specs, dataset, scale, requests)
    owned_dir = None
    if cache_dir is None:
        owned_dir = tempfile.TemporaryDirectory(prefix="repro-fleet-bench-")
        cache_dir = owned_dir.name
    try:
        config = FleetConfig(
            shards=shards,
            queue_depth=max(requests, 1),
            cache_dir=cache_dir,
            chaos=chaos if chaos.enabled else None,
            max_retries=max_retries,
            attempt_timeout_s=60.0,
        )
        with FleetService(config) as fleet:
            for kernel in {plan_from_spec(s).kernel.name for s in specs}:
                fleet.preload_handle(kernel, dataset, scale)
            run = run_load(fleet, workload, clients=clients)
            stats = fleet.stats()
    finally:
        if owned_dir is not None:
            owned_dir.cleanup()

    mismatches = sum(
        1
        for index, response in enumerate(run["responses"])
        if response is not None
        and response.status == "ok"
        and response.fingerprints != expected[index % distinct]
    )
    run.pop("responses")
    completed_ok = run["ok"]
    return {
        "requests": requests,
        "distinct_specs": distinct,
        "clients": clients,
        "shards": shards,
        "scale": scale,
        "dataset": dataset,
        "chaos": chaos.to_dict(),
        **{k: v for k, v in run.items() if k != "requests"},
        "availability": completed_ok / requests if requests else 1.0,
        "digest_mismatches": mismatches,
        "bit_identical": mismatches == 0,
        "counters": stats["counters"],
        "accounting_ok": stats["accounting_ok"],
        "shard_stats": stats["shards"],
    }


__all__ = [
    "coalescing_benchmark",
    "duplicate_heavy_requests",
    "fleet_chaos_benchmark",
    "run_load",
    "streaming_benchmark",
]
