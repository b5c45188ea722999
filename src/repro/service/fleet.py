"""The sharded, supervised bind fleet (PlanService grown into a fleet).

:class:`~repro.service.server.PlanService` serves binds from one
process; its failure modes are all-or-nothing.  :class:`FleetService` is
the same front end (:class:`~repro.service.core.ServiceCore` — the
request pipeline is drawn there) over a different binder: a flight binds
on one of N worker *processes*, and worker death is a routine,
accounted, **invisible** event.

The binder (one admitted flight, run by its lead caller)::

    flight key ──> consistent-hash ring ──> shard S
                        │    (vnodes; each shard's memory LRU
                        │     stays hot on its own key range)
                        ▼
       circuit breaker S closed/half-open? ──no──> next shard
                        │yes          (all dark: the in-thread
                        ▼               binder, in this process)
           worker process S: PlanCache bind
           (shared DiskStore L2 — a respawned
            worker warm-starts from disk)
                        │
       crash / wedge / timeout?  ──> breaker.record_failure,
                        │            backoff (exponential +
                        │            deterministic jitter),
                        │            retry on surviving shard
                        │            (deadline budget inherited,
                        ▼             never refreshed)
          digests + report (SHA-256 bit-identity contract)

There is no parked queue: the lead caller's thread runs the flight, so
``queue_depth`` bounds the flights *running* and there is nothing to
shed.  The flight key names the dataset (``dataset/scale/epoch``)
instead of hashing it, so the parent never materializes a dataset; each
shard keeps only the newest epoch, so a read pinned to an older one is
served from the newest.

The supervisor (:mod:`repro.service.supervisor`) restarts crashed and
wedged workers under a per-shard restart budget; a shard past its budget
goes *dark* (breaker latched open) and the ring routes around it.  When
every shard is dark the flight binds on the same
:class:`~repro.service.binder.LocalBinder` the single-process service
uses — accepted requests are never dropped because the fleet died.

Responses carry the same SHA-256 content digests as the single-process
service: a request recovered across a worker SIGKILL must produce
digests bit-identical to the no-fault run.  The chaos harness
(:mod:`repro.service.chaos`) exists to prove exactly that.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import repro.errors as errors_module
from repro.errors import (
    DeadlineExceededError,
    ReproError,
    RetryExhaustedError,
    ValidationError,
    WorkerCrashError,
)
from repro.service.binder import LocalBinder, result_body
from repro.service.chaos import CacheCorruptor, ChaosPlan
from repro.service.core import ServiceCore, _Flight, counted
from repro.service.supervisor import (
    CircuitBreaker,
    Supervisor,
    mp_context,
)
from repro.service.telemetry import Telemetry

#: Fleet backpressure policies (no shed: flights run in caller threads,
#: so there is no queue of parked work to shed from).
FLEET_OVERLOAD_POLICIES = ("block", "reject")

#: Fallback policies when every shard is dark.
FALLBACK_POLICIES = ("inprocess", "error")


@dataclass
class FleetConfig:
    """Tunables of one :class:`FleetService`."""

    shards: int = 2
    #: Max concurrently admitted flights (leads; followers ride free).
    queue_depth: int = 64
    overload: str = "block"
    admission_timeout_s: Optional[float] = None
    #: Retries after the first dispatch (so ``max_retries + 1`` total
    #: shard attempts before :class:`RetryExhaustedError`).
    max_retries: int = 3
    backoff_base_s: float = 0.02
    backoff_cap_s: float = 0.5
    #: Per-dispatch reply deadline; a shard that blows it is treated as
    #: wedged (killed + restarted) and the request retried elsewhere.
    attempt_timeout_s: float = 30.0
    #: Circuit breaker: open after this many consecutive failures.
    failure_threshold: int = 3
    breaker_cooldown_s: float = 0.25
    #: Supervisor liveness: heartbeat older than this => wedged.
    liveness_deadline_s: float = 1.5
    supervisor_poll_s: float = 0.05
    restart_budget: int = 8
    #: Virtual nodes per shard on the consistent-hash ring.
    virtual_nodes: int = 64
    #: Shared DiskStore directory (the crash-consistent L2 every worker
    #: and the in-process fallback warm-start from).  ``None``: workers
    #: run memory-only caches (tests that want cold binds).
    cache_dir: Optional[str] = None
    fallback: str = "inprocess"
    default_scale: Optional[int] = None
    #: Reproducible fault injection; ``None`` (or all-zero rates) = off.
    chaos: Optional[ChaosPlan] = None

    def __post_init__(self):
        if self.shards < 1:
            raise ValidationError(
                f"shards must be >= 1, got {self.shards}", stage="fleet"
            )
        if self.queue_depth < 1:
            raise ValidationError(
                f"queue_depth must be >= 1, got {self.queue_depth}",
                stage="fleet",
            )
        if self.overload not in FLEET_OVERLOAD_POLICIES:
            raise ValidationError(
                f"unknown overload policy {self.overload!r}",
                stage="fleet",
                hint=f"choose one of {FLEET_OVERLOAD_POLICIES}",
            )
        if self.fallback not in FALLBACK_POLICIES:
            raise ValidationError(
                f"unknown fallback policy {self.fallback!r}",
                stage="fleet",
                hint=f"choose one of {FALLBACK_POLICIES}",
            )
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {self.max_retries}",
                stage="fleet",
            )
        if self.virtual_nodes < 1:
            raise ValidationError(
                f"virtual_nodes must be >= 1, got {self.virtual_nodes}",
                stage="fleet",
            )


def backoff_delay(
    base_s: float, cap_s: float, request_id: str, attempt: int, seed: int = 0
) -> float:
    """Exponential backoff with *deterministic* jitter.

    ``base * 2^attempt`` scaled by a jitter factor in [0.5, 1.0) drawn
    from SHA-256 over ``(seed, request_id, attempt)`` — two runs of the
    same workload back off identically (chaos runs stay reproducible),
    while distinct requests de-synchronize instead of retrying in
    lockstep (no thundering herd onto the surviving shard).
    """
    digest = hashlib.sha256(
        f"{seed}:{request_id}:{attempt}".encode("utf-8")
    ).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return min(cap_s, base_s * (2.0 ** attempt)) * (0.5 + unit / 2.0)


class HashRing:
    """Consistent-hash ring: route key -> shard, stable under membership.

    Each shard owns ``virtual_nodes`` points; a key routes to the first
    point clockwise.  ``route()`` walks clockwise past shards the caller
    excludes (tried-and-failed, breaker-open), so a dead shard's keys
    spill onto its ring successors — and *only* its keys move, which is
    what keeps every other shard's memory LRU hot across a failure.
    """

    def __init__(self, shards: int, virtual_nodes: int = 64):
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for vnode in range(virtual_nodes):
                digest = hashlib.sha256(
                    f"shard-{shard}:vnode-{vnode}".encode("ascii")
                ).digest()
                points.append((int.from_bytes(digest[:8], "big"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]
        self.shards = shards

    def _key_point(self, key: str) -> int:
        digest = hashlib.sha256(key.encode("ascii")).digest()
        return int.from_bytes(digest[:8], "big")

    def route(self, key: str, exclude: Optional[Set[int]] = None):
        """The key's shard, skipping ``exclude``; ``None`` if all are."""
        exclude = exclude or set()
        if len(exclude) >= self.shards:
            return None
        start = bisect.bisect_right(self._hashes, self._key_point(key))
        seen: Set[int] = set()
        for offset in range(len(self._shards)):
            shard = self._shards[(start + offset) % len(self._shards)]
            if shard in seen:
                continue
            seen.add(shard)
            if shard not in exclude:
                return shard
        return None


class FleetService(ServiceCore):
    """Supervised sharded bind fleet with the ``PlanService`` surface.

    ``bind``/``stats``/``describe``/``preload_handle``/``advance_epoch``
    match :class:`~repro.service.server.PlanService`, so the HTTP/stdio
    front ends, the load generator, and the benchmarks drive either
    service unchanged.  Use as a context manager::

        with FleetService(FleetConfig(shards=4, cache_dir=dir)) as fleet:
            response = fleet.bind(BindRequest(spec=spec, dataset="mol1"))
    """

    NAME = "fleet"

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        super().__init__(
            config if config is not None else FleetConfig(), telemetry
        )
        self.ring = HashRing(self.config.shards, self.config.virtual_nodes)
        self.breakers = [
            CircuitBreaker(
                failure_threshold=self.config.failure_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
                on_transition=self._breaker_transition,
            )
            for _ in range(self.config.shards)
        ]
        self.supervisor = Supervisor(
            self._start_worker,
            shards=self.config.shards,
            liveness_deadline_s=self.config.liveness_deadline_s,
            poll_s=self.config.supervisor_poll_s,
            restart_budget=self.config.restart_budget,
            on_shard_down=self._shard_down,
            telemetry=self.telemetry,
        )
        self.corruptor: Optional[CacheCorruptor] = None
        chaos = self.config.chaos
        if (
            chaos is not None
            and chaos.corrupt_rate > 0
            and self.config.cache_dir
        ):
            self.corruptor = CacheCorruptor(chaos, self.config.cache_dir)
        self._dispatch_seq = itertools.count(0)  # chaos decision points
        self._local: Optional[LocalBinder] = None  # built on first need

    # -- worker spawning -------------------------------------------------------

    def _start_binder(self) -> None:
        self.supervisor.start()

    def _stop_binder(self, drain: bool) -> None:
        self.supervisor.stop()

    def _start_worker(self, index: int, generation: int):
        ctx = mp_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        # Lock-free: one writer (the worker's heartbeat thread) making one
        # aligned 8-byte store.  A process-shared lock here would stay
        # held forever by a worker SIGKILLed mid-store, and every later
        # read in the parent (health, the liveness monitor) would block.
        heartbeat = ctx.Value("d", time.monotonic(), lock=False)
        options = {
            "cache_dir": self.config.cache_dir,
            "chaos": (
                self.config.chaos.to_dict()
                if self.config.chaos is not None
                else None
            ),
        }
        process = ctx.Process(
            target=_fleet_worker_main,
            args=(index, generation, child_conn, heartbeat, options),
            name=f"repro-fleet-shard-{index}-gen-{generation}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only its end
        return process, parent_conn, heartbeat

    def _shard_down(self, index: int, reason: str) -> None:
        if reason == "restart-budget-exhausted":
            self.breakers[index].force_open()

    def _breaker_transition(self, old: str, new: str) -> None:
        self.telemetry.counter(f"breaker_{new.replace('-', '_')}").add()

    def _broadcast(self, payload: dict) -> List[dict]:
        """One op to every live shard; the bodies of those that answered
        ``ok``.  Shards that crash mid-call are skipped — the supervisor
        respawns them and they catch up lazily."""
        bodies = []
        for handle in self.supervisor.handles:
            message = dict(payload, seq=next(self._dispatch_seq))
            try:
                status, body = handle.call(
                    message, self.config.attempt_timeout_s
                )
            except WorkerCrashError:
                continue
            if status == "ok":
                bodies.append(body)
        return bodies

    # -- dispatch: no parked queue, the lead caller runs the flight ------------

    def _backlog_locked(self) -> int:
        return self._active

    def _await(self, flight: _Flight, waiter):
        if waiter.lead:
            self._execute(flight)
        return super()._await(flight, waiter)

    def _dataset_identity(self, kernel, request, epoch, chain) -> str:
        """The handle by *name*.  The dataset's content fingerprint is
        intentionally not materialized here (that would generate the
        dataset in the parent); handles are deterministic and the epoch
        chain is the single mutation log, so name+scale+epoch identifies
        the content."""
        return f"dataset={request.dataset};scale={request.scale};epoch={epoch}"

    # -- the binder: ring + breaker + retry + backoff --------------------------

    def _remaining_budget(self, flight: _Flight) -> Optional[float]:
        """The lead request's *remaining* deadline budget.

        Retries inherit this — a retry never gets a fresh deadline, so a
        request that crashes its way past its deadline fails with one
        :class:`DeadlineExceededError`, not a late success.  A lead that
        asked for ``on_deadline='degrade'`` has no budget to run out of:
        its late answer is served and marked, as on the single-process
        service.
        """
        request = flight.request
        if request.deadline_s is None or request.on_deadline != "raise":
            return None
        lead = flight.waiters[0]
        return request.deadline_s - (self.telemetry.now() - lead.submitted_at)

    def _bind_flight(self, flight: _Flight) -> dict:
        config = self.config
        request = flight.request
        tags = flight.tags
        tags.update(shard=None, attempts=0, fallback=False)
        excluded: Set[int] = set()
        last_error: Optional[BaseException] = None
        attempt = 0
        while attempt <= config.max_retries:
            remaining = self._remaining_budget(flight)
            if remaining is not None and remaining <= 0:
                raise DeadlineExceededError(
                    f"deadline of {request.deadline_s}s expired after "
                    f"{attempt} dispatch attempt(s) — retries "
                    "inherit the original budget",
                    stage="fleet",
                )
            shard = self.ring.route(flight.key, exclude=excluded)
            if shard is None:
                return self._fallback_bind(flight)
            if (
                not self.supervisor.handles[shard].alive
                or not self.breakers[shard].allow()
            ):
                # No live worker (crashed, not yet respawned) or the
                # breaker refused (open / probe taken): route past it.  A
                # dispatch that never reached a worker is not an attempt,
                # a crash or a retry.
                excluded.add(shard)
                continue
            attempt += 1
            tags.update(shard=shard, attempts=attempt)
            sequence = next(self._dispatch_seq)
            if self.corruptor is not None:
                self.corruptor.maybe_corrupt(sequence)
            timeout = config.attempt_timeout_s
            if remaining is not None:
                timeout = min(timeout, max(remaining, 0.001))
            payload = {
                "op": "bind",
                "seq": sequence,
                "request_id": request.request_id,
                "spec": request.spec,
                "dataset": request.dataset,
                "scale": request.scale,
                "num_steps": request.num_steps,
                "verify": request.verify,
                "epoch": flight.epoch,
                # Carry the delta chain so a respawned (epoch-0) worker
                # self-heals by replaying what it missed — no catch-up
                # round trip, no stampede back onto the parent.
                "chain": list(flight.chain),
            }
            handle = self.supervisor.handles[shard]
            try:
                with self.telemetry.span(
                    "dispatch", request.request_id, shard=shard,
                    attempt=attempt,
                ):
                    status, body = handle.call(payload, timeout)
            except WorkerCrashError as exc:
                exc.attempt = attempt
                self.telemetry.counter("worker_crashes").add()
                self.breakers[shard].record_failure()
                last_error = exc
                excluded.add(shard)
                if len(excluded) >= self.ring.shards:
                    # Every shard tried once this round: allow respawned
                    # workers a fresh chance on the next lap.
                    excluded.clear()
                if attempt <= config.max_retries:
                    self.telemetry.counter("retries").add()
                    delay = backoff_delay(
                        config.backoff_base_s,
                        config.backoff_cap_s,
                        request.request_id,
                        attempt,
                        seed=config.chaos.seed if config.chaos is not None else 0,
                    )
                    if remaining is not None:
                        delay = min(delay, max(remaining, 0.0))
                    if delay > 0:
                        time.sleep(delay)
                continue
            self.breakers[shard].record_success()
            if status == "ok":
                return body
            # A typed request error from a healthy shard: not retryable,
            # not a shard failure.
            raise _rebuild_error(body)
        raise RetryExhaustedError(
            f"request {request.request_id} failed on every attempt "
            f"({attempt} dispatches across the fleet)",
            stage="fleet",
            attempts=attempt,
            last_error=last_error,
            hint="raise max_retries, or check why shards keep dying "
            "(see stats()['shards'])",
        )

    # -- in-process degradation ------------------------------------------------

    def _local_binder(self) -> LocalBinder:
        """The in-thread binder over the shared disk cache (the
        all-shards-dark path, and the fingerprint of last resort)."""
        with self._lock:
            if self._local is None:
                cache = None
                if self.config.cache_dir:
                    from repro.plancache import PlanCache

                    cache = PlanCache(directory=self.config.cache_dir)
                self._local = LocalBinder(cache, self.telemetry)
            return self._local

    def _fallback_bind(self, flight: _Flight) -> dict:
        """Every shard dark: swap binders — the flight binds in this
        process (single-flight via the flight itself) so accepted
        requests survive total fleet loss."""
        if self.config.fallback != "inprocess":
            raise RetryExhaustedError(
                "every shard is dark and in-process fallback is disabled",
                stage="fleet",
                attempts=flight.tags["attempts"],
            )
        self.telemetry.counter("fallback_binds").add()
        flight.tags.update(shard=None, fallback=True)
        return self._local_binder().bind(flight)

    # -- epochs / warmup -------------------------------------------------------

    def _epoch_advanced(self, handle, chain) -> None:
        """Fan the invalidation out: push a catch-up op to every live
        shard.  A shard that misses it is not behind for long — every
        epoch'd bind dispatch carries the chain, so a respawned worker
        replays the deltas it missed lazily rather than hammering the
        parent."""
        kernel, dataset, scale = handle
        self._broadcast({
            "op": "epoch",
            "kernel": kernel,
            "dataset": dataset,
            "scale": scale,
            "epoch": len(chain),
            "chain": list(chain),
        })

    def preload_handle(self, kernel: str, dataset: str, scale: int) -> str:
        """Materialize one dataset handle on every live shard; returns
        its content fingerprint (from this process when no shard
        answered)."""
        bodies = self._broadcast({
            "op": "preload",
            "kernel": kernel,
            "dataset": dataset,
            "scale": int(scale),
        })
        if bodies:
            return bodies[-1]["fingerprint"]
        return self._local_binder().resolve(kernel, dataset, int(scale))[1]

    # -- stats -----------------------------------------------------------------

    def _binder_health(self) -> dict:
        shards = self.supervisor.stats()
        return {
            "shards": len(shards),
            "alive": sum(1 for s in shards if s["alive"]),
            "dark": sum(1 for s in shards if s["dark"]),
        }

    def _binder_config(self) -> dict:
        config = self.config
        return {
            "shards": config.shards,
            "max_retries": config.max_retries,
            "failure_threshold": config.failure_threshold,
            "restart_budget": config.restart_budget,
            "cache_dir": config.cache_dir,
            "chaos": config.chaos.to_dict() if config.chaos is not None else None,
        }

    def _binder_stats(self) -> dict:
        shards = self.supervisor.stats()
        for entry, breaker in zip(shards, self.breakers):
            entry["breaker"] = breaker.state
            entry["consecutive_failures"] = breaker.consecutive_failures
        return {"shards": shards}

    def _binder_describe(self, stats: dict) -> List[str]:
        counters = stats["counters"]
        lines = [
            "  resilience: "
            + counted(
                counters, "retries", "worker_crashes", "worker_restarts",
                "workers_wedged", "fallback_binds", "shards_dark",
            )
        ]
        for shard in stats["shards"]:
            lines.append(
                f"  shard {shard['shard']}: "
                f"{'alive' if shard['alive'] else 'DOWN'}"
                f"{' (dark)' if shard['dark'] else ''}  "
                f"pid={shard['pid']}  gen={shard['generation']}  "
                f"restarts={shard['restarts']}  served={shard['served']}  "
                f"breaker={shard['breaker']}"
            )
        return lines


def _rebuild_error(body: dict) -> ReproError:
    """Re-raise a worker's typed error under its original class."""
    name = body.get("type", "ReproError")
    cls = getattr(errors_module, name, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = ReproError
    try:
        return cls(body.get("message", "worker error"))
    except TypeError:  # pragma: no cover - unusual constructor signature
        return ReproError(body.get("message", "worker error"))


# ---------------------------------------------------------------------------
# Worker side (module-level: picklable under any start method).


def _fleet_worker_main(index, generation, conn, heartbeat, options):
    """One shard: heartbeat thread + serial bind loop over the pipe.

    The worker's plan cache is memory-LRU over the *shared* DiskStore
    directory (when configured) — the crash-consistent L2 that lets a
    respawned generation warm-start instead of re-running inspectors its
    predecessor already paid for.
    """
    from repro.kernels.data import make_kernel_data
    from repro.kernels.datasets import generate_dataset
    from repro.plancache import PlanCache
    from repro.plancache.fingerprint import dataset_fingerprint
    from repro.runtime.planspec import plan_from_spec
    from repro.service.chaos import ChaosPlan, WorkerChaos

    chaos = None
    chaos_payload = options.get("chaos")
    if chaos_payload:
        plan = ChaosPlan.from_dict(chaos_payload)
        if plan.enabled:
            chaos = WorkerChaos(plan)

    def _heartbeat_loop():
        while True:
            if chaos is not None:
                chaos.heartbeat_gate()
            heartbeat.value = time.monotonic()
            time.sleep(0.05)

    threading.Thread(
        target=_heartbeat_loop,
        name=f"repro-fleet-heartbeat-{index}",
        daemon=True,
    ).start()

    cache_dir = options.get("cache_dir")
    cache = (
        PlanCache(directory=cache_dir)
        if cache_dir
        else PlanCache(use_disk=False)
    )
    handles: Dict[Tuple[str, str, int], object] = {}  # epoch-0 base
    #: (kernel, dataset, scale) -> (epoch, data): the one advanced
    #: version this shard holds; older epochs replay from the base.
    epoch_state: Dict[Tuple[str, str, int], Tuple[int, object]] = {}

    def _handle(
        kernel: str, dataset: str, scale: int, epoch: int = 0, chain=None
    ):
        key = (kernel, dataset, int(scale))
        base = handles.get(key)
        if base is None:
            base = make_kernel_data(
                kernel, generate_dataset(dataset, scale=scale)
            )
            handles[key] = base
        if not epoch:
            return base
        current, data = epoch_state.get(key, (0, base))
        if current == epoch:
            return data
        chain = chain if chain is not None else []
        if len(chain) < epoch:
            raise ValidationError(
                f"epoch {epoch} requested but the dispatch carried only "
                f"{len(chain)} delta(s)",
                stage="fleet",
            )
        if current > epoch:
            current, data = 0, base  # older pinned epoch: replay fresh
        for delta in chain[current:epoch]:
            data = delta.apply(data)
        epoch_state[key] = (epoch, data)
        return data

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if not isinstance(message, dict) or message.get("op") == "stop":
            return
        sequence = message.get("seq", -1)
        op = message.get("op")
        try:
            if op == "preload":
                data = _handle(
                    message["kernel"], message["dataset"], message["scale"]
                )
                reply = ("ok", {"fingerprint": dataset_fingerprint(data)})
            elif op == "epoch":
                # Cross-shard invalidation: catch this shard up to the
                # published epoch by replaying the delta chain.
                data = _handle(
                    message["kernel"],
                    message["dataset"],
                    message["scale"],
                    message["epoch"],
                    message.get("chain"),
                )
                reply = ("ok", {"epoch": message["epoch"], "shard": index})
            elif op == "ping":
                reply = ("ok", {"pid": os.getpid(), "shard": index})
            elif op == "bind":
                if chaos is not None:
                    chaos.before_bind(sequence)
                start = time.monotonic()
                plan = plan_from_spec(message["spec"])
                data = _handle(
                    plan.kernel.name,
                    message["dataset"],
                    message["scale"],
                    message.get("epoch", 0),
                    message.get("chain"),
                )
                result = plan.bind(
                    data,
                    num_steps=message["num_steps"],
                    verify=message["verify"],
                    cache=cache,
                )
                reply = (
                    "ok",
                    result_body(
                        result,
                        (time.monotonic() - start) * 1e3,
                        shard=index,
                        generation=generation,
                        epoch=message.get("epoch", 0),
                    ),
                )
            else:
                reply = (
                    "error",
                    {
                        "type": "ValidationError",
                        "message": f"unknown worker op {op!r}",
                    },
                )
        except ReproError as exc:
            reply = ("error", {"type": type(exc).__name__, "message": str(exc)})
        except Exception as exc:  # noqa: BLE001 - typed at the boundary
            reply = (
                "error",
                {"type": "InspectorFault",
                 "message": f"{type(exc).__name__}: {exc}"},
            )
        try:
            conn.send((sequence, *reply))
        except (BrokenPipeError, OSError):
            return


__all__ = [
    "FALLBACK_POLICIES",
    "FLEET_OVERLOAD_POLICIES",
    "FleetConfig",
    "FleetService",
    "HashRing",
    "backoff_delay",
]
