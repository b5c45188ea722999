"""The one bind-service front end (shared by both services).

:class:`ServiceCore` is everything about serving a bind that does not
depend on *where the bind runs*.  One request goes through one ordered
pipeline; exactly one stage of it is pluggable::

    request ──> prepare: parse spec, default the scale, read the epoch
       │        ledger, decide the epoch to serve, build the flight key
       │                          │
       │      ┌── identical flight in flight? ──┐
       │      │yes: attach (coalesced)          │no
       │      │                                 ▼
       │      │                       admission control
       │      │             (bounded; block / reject / shed-oldest;
       │      │              a draining service admits nothing)
       │      │                                 │
       │      │                 ┌───────────────┴───────────────┐
       │      │                 │  _bind_flight(flight) -> body │
       │      │                 │  THE PLUGGABLE STAGE: where a │
       │      │                 │  flight binds (in-thread, or  │
       │      │                 │  sharded over worker procs)   │
       │      │                 └───────────────┬───────────────┘
       │      └─────────────┬───────────────────┘
       ▼                    ▼
    await(deadline) <── flight resolves ──> BindResponse / typed error

The two services are this class plus a binder:

* :class:`~repro.service.server.PlanService` parks admitted flights on a
  queue that worker threads drain, and binds in-thread against its
  :class:`~repro.plancache.PlanCache`
  (:class:`~repro.service.binder.LocalBinder`);
* :class:`~repro.service.fleet.FleetService` has the lead caller run the
  flight, and binds on a supervised worker process picked by a
  consistent-hash ring (breaker + retry + backoff live there); with
  every shard dark it calls the same ``LocalBinder``.

What a binder supplies is small and named in one place: the flight
key's dataset identity (:meth:`_dataset_identity`), whether pinned reads
of older epochs are served (:attr:`PINNED_READS`), the admission backlog
(:meth:`_backlog_locked`), the two epoch hooks, its ``stats``/``health``
blocks, and :meth:`_bind_flight` itself.

Every request is accounted: ``accepted + coalesced + rejected + shed ==
submitted`` (:func:`accounting_ok`; shed waiters are *re-classified*
from their admission bucket when dropped, so the identity is exact at
every instant the lock is not held).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServiceOverloadError,
    ValidationError,
)
from repro.service.request import BindRequest, BindResponse, error_body
from repro.service.telemetry import Telemetry

#: (kernel, dataset, scale): what an epoch chain is published against.
Handle = Tuple[str, str, int]


def accounting_ok(counters: Dict[str, int]) -> bool:
    """Did every submitted request land in exactly one admission bucket?"""
    return counters.get("submitted", 0) == (
        counters.get("accepted", 0)
        + counters.get("coalesced", 0)
        + counters.get("rejected", 0)
        + counters.get("shed", 0)
    )


def counted(counters: Dict[str, int], *names: str) -> str:
    """``name=value`` pairs for a ``describe()`` line."""
    return "  ".join(f"{name}={counters.get(name, 0)}" for name in names)


class _Waiter:
    """One submitted request attached to a flight."""

    __slots__ = ("request", "submitted_at", "lead", "epoch", "stale")

    def __init__(
        self, request: BindRequest, submitted_at: float, epoch: int, stale: bool
    ):
        self.request = request
        self.submitted_at = submitted_at
        self.lead = False  # admitted the flight (False: coalesced follower)
        self.epoch = epoch  # dataset epoch this waiter is served from
        self.stale = stale  # served behind the epoch it asked for


class _Flight:
    """One distinct unit of inspector work (1 lead + N followers)."""

    def __init__(self, key: str, request: BindRequest, plan, epoch: int, chain):
        self.key = key
        self.request = request  # the lead's (scale resolved)
        self.plan = plan  # parsed once at prepare, bound at most once
        self.epoch = epoch  # dataset epoch the flight binds against
        #: The deltas that lead from epoch 0 to ``epoch`` — what a binder
        #: that does not hold the epoch yet replays to reach it.
        self.chain = chain
        self.waiters: List[_Waiter] = []
        self.event = threading.Event()
        self.started_at: Optional[float] = None
        #: What the binder returns (:func:`~repro.service.binder.
        #: result_body`): digests, report, cache provenance, ``bind_ms``.
        self.body: Optional[dict] = None
        #: The live ``InspectorResult`` — in-thread binds only.
        self.result = None
        self.error: Optional[BaseException] = None
        #: Binder provenance for the ``respond`` span (shard, attempts…).
        self.tags: Dict[str, object] = {}

    @property
    def kernel(self) -> str:
        return self.plan.kernel.name


class ServiceCore:
    """Lifecycle, preparation, single-flight, admission, epochs,
    deadlines, responses and stats of one bind service."""

    #: Noun for messages and the ``stage`` of typed errors.
    NAME = "service"
    #: Does a request pinned to an older epoch read that epoch (the
    #: binder retains every version), or the newest one (it keeps one)?
    PINNED_READS = False

    def __init__(
        self, config, telemetry: Optional[Telemetry], coalesce: bool = True
    ):
        self.config = config
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._coalesce = coalesce
        self._lock = threading.Lock()
        self._capacity = threading.Condition(self._lock)
        self._inflight: Dict[str, _Flight] = {}
        self._active = 0  # admitted flights not yet resolved
        self._started = False
        self._stopping = False
        self._draining = False
        self._ids = itertools.count(1)
        #: handle -> the deltas published so far; ``chain[i]`` maps
        #: epoch i to i + 1, so the newest epoch is ``len(chain)``.  The
        #: tuples are replaced, never mutated: readers take no lock.
        self._ledger: Dict[Handle, tuple] = {}
        self._advance_lock = threading.Lock()

    # -- what a binder supplies ------------------------------------------------

    def _bind_flight(self, flight: _Flight) -> dict:
        """The pluggable stage: bind one flight, return its body."""
        raise NotImplementedError

    def _dataset_identity(
        self, kernel: str, request: BindRequest, epoch: int, chain: tuple
    ) -> str:
        """The dataset's part of the flight key."""
        raise NotImplementedError

    def _backlog_locked(self) -> int:
        """Flights that count against ``queue_depth`` right now."""
        raise NotImplementedError

    def _admitted_locked(self, flight: _Flight) -> None:
        """A new flight was admitted (caller holds the lock)."""

    def _shed_oldest_locked(self) -> None:
        """Drop the oldest parked flight (``shed-oldest`` services)."""
        raise NotImplementedError

    def _start_binder(self) -> None:
        raise NotImplementedError

    def _stop_binder(self, drain: bool) -> None:
        raise NotImplementedError

    def _epoch_advancing(self, handle: Handle, chain: tuple) -> None:
        """Before an epoch is published; raising publishes nothing."""

    def _epoch_advanced(self, handle: Handle, chain: tuple) -> None:
        """After an epoch is published."""

    def _binder_config(self) -> dict:
        return {}

    def _binder_stats(self) -> dict:
        return {}

    def _binder_health(self) -> dict:
        return {}

    def _binder_describe(self, stats: dict) -> List[str]:
        return []

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._stopping = False
            self._draining = False
        self._start_binder()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop serving.  Admitted flights still run to completion when
        ``drain``; a service that parks flights sheds them otherwise."""
        with self._lock:
            if not self._started or self._stopping:
                return
            self._stopping = True
            self._capacity.notify_all()
        self._stop_binder(drain)
        with self._lock:
            self._started = False

    def drain(self, deadline_s: Optional[float] = None) -> dict:
        """Graceful shutdown: stop admitting, finish in-flight, stop.

        The moment draining starts new submissions are rejected (so the
        accounting invariant still holds for late arrivals); flights
        already admitted are given ``deadline_s`` seconds to finish
        (``None``: wait for all of them), anything still parked at the
        deadline is shed with exact accounting, and telemetry is flushed
        either way.  Returns ``{"drained": bool, "abandoned_flights":
        int}`` so callers (the ``repro serve`` signal handler) can
        report what the shutdown left behind.
        """
        with self._lock:
            if not self._started:
                return {"drained": True, "abandoned_flights": 0}
            self._draining = True
            self._capacity.notify_all()
        deadline = (
            self.telemetry.now() + deadline_s if deadline_s is not None
            else None
        )
        while True:
            with self._lock:
                abandoned = self._active
            if abandoned == 0:
                break
            if deadline is not None and self.telemetry.now() >= deadline:
                break
            time.sleep(0.005)
        self.stop(drain=abandoned == 0)
        self.telemetry.flush()
        return {"drained": abandoned == 0, "abandoned_flights": abandoned}

    def health(self) -> dict:
        """Liveness for ``GET /healthz``: a draining or stopped service
        is not ``ok``, so load balancers stop routing to it while the
        in-flight requests finish."""
        return {
            "ok": self._started and not self._stopping and not self._draining,
            "draining": self._draining,
            **self._binder_health(),
        }

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- the epoch ledger ------------------------------------------------------

    def current_epoch(self, kernel: str, dataset: str, scale: int) -> int:
        """The newest published epoch for one handle (0: never advanced)."""
        return len(self._ledger.get((kernel, dataset, int(scale)), ()))

    def advance_epoch(self, kernel: str, dataset: str, scale: int, delta) -> int:
        """Publish the next dataset epoch for one handle; returns it.

        Appends the :class:`~repro.incremental.DatasetDelta` to the
        handle's chain — the single mutation log — under the advance
        lock, so N concurrent advances serialize into one ledger instead
        of stampeding.  The binder sees the epoch twice: *before* it is
        published (the in-thread binder materializes it there, so a
        delta that does not apply publishes nothing) and *after* (the
        fleet fans the catch-up out to its shards there, outside the
        lock).
        """
        handle = (kernel, dataset, int(scale))
        with self._advance_lock:
            chain = self._ledger.get(handle, ()) + (delta,)
            self._epoch_advancing(handle, chain)
            self._ledger[handle] = chain
        self.telemetry.counter("epochs_advanced").add()
        self._epoch_advanced(handle, chain)
        return len(chain)

    def _epoch_decision(self, current: int, request: BindRequest):
        """(epoch to serve, stale?) for one request against one handle.

        ``None`` and up-to-date requests serve the newest epoch; an
        older explicit epoch is a pinned read of the retained version
        where the binder retains versions (:attr:`PINNED_READS`) and the
        newest epoch where it does not; a request *ahead* of the
        published epoch is served stale from the newest epoch when the
        gap fits ``max_staleness`` (the degrade-to-stale twin of
        ``on_deadline='degrade'``) and rejected past it.
        """
        requested = request.epoch
        if requested is None or requested <= current:
            pinned = self.PINNED_READS and requested is not None
            return (requested if pinned else current), False
        gap = requested - current
        if gap <= request.max_staleness:
            return current, True
        raise ValidationError(
            f"requested epoch {requested} is {gap} ahead of the published "
            f"epoch {current}, past max_staleness={request.max_staleness}",
            stage=self.NAME,
            hint="advance_epoch() publishes new epochs; raise "
            "max_staleness to accept stale answers",
        )

    # -- prepare / single-flight / admission -----------------------------------

    def _prepare(self, request: BindRequest):
        """Parse, default the scale, pick the epoch, key the flight.

        Returns ``(flight, stale)``: the flight this request *would*
        lead (:meth:`_attach` drops it when an identical one is already
        in flight) and whether it is served behind the epoch it asked
        for.  The key is the plan-cache plan fingerprint x the binder's
        dataset identity x the bind options — the one place
        cross-request sharing is decided.
        """
        from repro.plancache.fingerprint import combine, plan_fingerprint
        from repro.runtime.planspec import plan_from_spec

        plan = plan_from_spec(request.spec)
        if request.scale is None:
            request.scale = self.config.default_scale
        if request.scale is None:
            from repro.kernels.datasets import DEFAULT_SCALE

            request.scale = DEFAULT_SCALE
        request.scale = int(request.scale)
        kernel = plan.kernel.name
        chain = self._ledger.get((kernel, request.dataset, request.scale), ())
        epoch, stale = self._epoch_decision(len(chain), request)
        chain = chain[:epoch]
        key = combine(
            plan_fingerprint(plan),
            self._dataset_identity(kernel, request, epoch, chain),
            f"num_steps={request.num_steps}",
            f"verify={request.verify}",
        )
        return _Flight(key, request, plan, epoch, chain), stale

    def _attach(self, request: BindRequest, submitted_at: float):
        """Coalesce onto an in-flight bind or admit a new one.

        Raises :class:`~repro.errors.ServiceOverloadError` under the
        ``reject`` policy (or a ``block`` timeout, or while draining)
        and propagates typed validation errors for malformed
        specs/handles — all count as ``rejected``, so every submitted
        request lands in exactly one admission bucket.
        """
        if not self._started or self._stopping:
            raise ServiceOverloadError(
                f"{self.NAME} is not running",
                stage=self.NAME,
                hint=f"use `with {type(self).__name__}(...) as svc:` or "
                "call start()",
            )
        telemetry = self.telemetry
        telemetry.counter("submitted").add()
        if not request.request_id:
            request.request_id = f"r{next(self._ids)}"
        try:
            candidate, stale = self._prepare(request)
        except ReproError:
            telemetry.counter("rejected").add()
            raise
        waiter = _Waiter(request, submitted_at, candidate.epoch, stale)
        with self._lock:
            # Resolved flights leave ``_inflight`` under this lock, so
            # whatever is found here is still queued or running.
            flight = self._inflight.get(candidate.key) if self._coalesce else None
            if flight is not None:
                flight.waiters.append(waiter)
                telemetry.counter("coalesced").add()
                telemetry.emit_span(
                    "coalesce", request.request_id, 0.0,
                    flight=flight.request.request_id,
                )
                return flight, waiter
            self._admit_locked()  # may block, raise, or shed a peer
            waiter.lead = True
            flight = candidate
            flight.waiters.append(waiter)
            self._inflight[flight.key] = flight
            self._active += 1
            telemetry.counter("accepted").add()
            self._admitted_locked(flight)
        return flight, waiter

    def _admit_locked(self) -> None:
        """Apply the backpressure policy; caller holds the lock."""
        config = self.config

        def rejected(message: str, hint: Optional[str] = None):
            self.telemetry.counter("rejected").add()
            return ServiceOverloadError(message, stage=self.NAME, hint=hint)

        if self._draining:
            raise rejected(
                f"{self.NAME} is draining (graceful shutdown in progress)",
                hint="resubmit to another instance",
            )
        if self._backlog_locked() < config.queue_depth:
            return
        if config.overload == "reject":
            raise rejected(
                f"{self.NAME} admission full ({config.queue_depth} flights "
                "pending)",
                hint="retry later, raise queue_depth, or use the block "
                "policy",
            )
        if config.overload == "shed-oldest":
            while self._backlog_locked() >= config.queue_depth:
                self._shed_oldest_locked()
            return
        # block: wait for capacity (bounded by admission_timeout_s).
        deadline = (
            self.telemetry.now() + config.admission_timeout_s
            if config.admission_timeout_s is not None
            else None
        )
        while (
            self._backlog_locked() >= config.queue_depth
            and not self._stopping
            and not self._draining
        ):
            remaining = None
            if deadline is not None:
                remaining = deadline - self.telemetry.now()
                if remaining <= 0:
                    raise rejected(
                        f"{self.NAME} admission blocked longer than "
                        f"{config.admission_timeout_s}s",
                        hint="the service is saturated; retry later or "
                        "raise queue_depth",
                    )
            self._capacity.wait(timeout=remaining)
        if self._stopping or self._draining:
            raise rejected(f"{self.NAME} is shutting down")

    def _resolved_locked(self, flight: _Flight) -> None:
        """One admitted flight left the service (done or shed)."""
        if self._inflight.get(flight.key) is flight:
            del self._inflight[flight.key]
        self._active -= 1
        self._capacity.notify()

    # -- the flight ------------------------------------------------------------

    def _execute(self, flight: _Flight) -> None:
        """Run the pluggable stage for one admitted flight and resolve
        it; runs on whichever thread the service dispatches flights to."""
        telemetry = self.telemetry
        flight.started_at = start = telemetry.now()
        try:
            with telemetry.span(
                "bind", flight.request.request_id,
                waiters=len(flight.waiters), dataset=flight.request.dataset,
            ):
                flight.body = self._bind_flight(flight)
            telemetry.histogram("bind_ms").observe(
                (telemetry.now() - start) * 1e3
            )
            telemetry.counter("binds_executed").add()
        except BaseException as exc:  # noqa: BLE001 - resolved, not leaked
            flight.error = exc
            telemetry.counter("bind_failures").add()
        finally:
            with self._lock:
                self._resolved_locked(flight)
            flight.event.set()

    # -- waiting / responses ---------------------------------------------------

    def _await(self, flight: _Flight, waiter: _Waiter) -> BindResponse:
        """Block until the flight resolves (or the waiter's deadline).

        Deadlines are per request, relative to submission, applied by
        the waiter: ``on_deadline='raise'`` stops waiting at the
        deadline and answers a typed
        :class:`~repro.errors.DeadlineExceededError`; ``'degrade'``
        mirrors the stage-failure degradation policies — the late result
        is served, marked ``deadline_missed``, and counted.
        """
        telemetry = self.telemetry
        request = waiter.request
        strict = request.deadline_s is not None and request.on_deadline == "raise"

        def expired(when: str) -> BindResponse:
            telemetry.counter("deadline_raised").add()
            telemetry.counter("failed").add()
            return self._error_response(
                request,
                DeadlineExceededError(
                    f"deadline of {request.deadline_s}s expired {when}",
                    stage=self.NAME,
                    hint="raise the deadline, or use on_deadline='degrade' "
                    "to accept late results",
                ),
                waiter.submitted_at,
                waiter.lead,
            )

        if strict:
            # Stop waiting at the deadline; a late result is an error.
            remaining = request.deadline_s - (
                telemetry.now() - waiter.submitted_at
            )
            if not flight.event.wait(timeout=max(0.0, remaining)):
                return expired("before the flight resolved")
        else:
            flight.event.wait()

        if flight.error is not None:
            telemetry.counter("failed").add()
            if isinstance(flight.error, DeadlineExceededError):
                telemetry.counter("deadline_raised").add()
            return self._error_response(
                request, flight.error, waiter.submitted_at, waiter.lead
            )
        # The deadline may also have expired even though the wait
        # returned promptly (tiny deadlines; a lead that ran the flight).
        elapsed = telemetry.now() - waiter.submitted_at
        deadline_missed = (
            request.deadline_s is not None and elapsed > request.deadline_s
        )
        if deadline_missed:
            if strict:
                return expired("while the flight was being served")
            telemetry.counter("deadline_degraded").add()

        body = flight.body
        queue_ms = max(0.0, (flight.started_at - waiter.submitted_at) * 1e3)
        total_ms = elapsed * 1e3
        telemetry.histogram("queue_ms").observe(queue_ms)
        telemetry.histogram("total_ms").observe(total_ms)
        telemetry.counter("completed").add()
        if waiter.stale:
            telemetry.counter("stale_served").add()
        telemetry.emit_span(
            "respond", request.request_id, total_ms,
            coalesced=not waiter.lead, cache=body["cache"], **flight.tags,
        )
        return BindResponse(
            request_id=request.request_id,
            status="ok",
            coalesced=not waiter.lead,
            cache=body["cache"],
            fingerprints=dict(body["fingerprints"]),
            overhead=dict(body["overhead"]),
            data_moves=body["data_moves"],
            report=body["report"],
            timing={
                "queue_ms": queue_ms,
                "bind_ms": body["bind_ms"] if waiter.lead else 0.0,
                "total_ms": total_ms,
            },
            deadline_missed=deadline_missed,
            epoch=waiter.epoch,
            stale=waiter.stale,
        )

    def _error_response(
        self,
        request: BindRequest,
        error: BaseException,
        submitted_at: float,
        lead: bool = True,
    ) -> BindResponse:
        return BindResponse(
            request_id=request.request_id or "",
            status="error",
            coalesced=not lead,
            timing={
                "total_ms": (self.telemetry.now() - submitted_at) * 1e3
            },
            error=error_body(error),
        )

    def bind(self, request: BindRequest) -> BindResponse:
        """Submit and wait — the closed-loop client call.

        Admission failures (reject/timeout/malformed/not running) come
        back as typed error *responses* rather than raising, so
        closed-loop clients can account every outcome.
        """
        submitted_at = self.telemetry.now()
        try:
            flight, waiter = self._attach(request, submitted_at)
        except ReproError as exc:
            self.telemetry.counter("failed").add()
            return self._error_response(request, exc, submitted_at)
        return self._await(flight, waiter)

    # -- stats -----------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-able service statistics (``GET /stats``, ``doctor``)."""
        snap = self.telemetry.snapshot()
        with self._lock:
            queue_len = self._backlog_locked()
            inflight = self._active
        return {
            "config": {
                "queue_depth": self.config.queue_depth,
                "overload": self.config.overload,
                **self._binder_config(),
            },
            "queue_len": queue_len,
            "inflight": inflight,
            **self._binder_stats(),
            "counters": snap["counters"],
            "histograms": snap["histograms"],
            "accounting_ok": accounting_ok(snap["counters"]),
        }

    def describe(self) -> str:
        stats = self.stats()
        counters = stats["counters"]
        lines = [
            f"{self.NAME} stats:",
            f"  pending: {stats['queue_len']}/{stats['config']['queue_depth']} "
            f"({stats['config']['overload']})  in flight: {stats['inflight']}",
            "  requests: "
            + counted(
                counters, "submitted", "accepted", "coalesced", "rejected", "shed",
                "completed", "failed",
            ),
            "  accounting invariant "
            "(accepted+coalesced+rejected+shed == submitted): "
            + ("ok" if stats["accounting_ok"] else "VIOLATED"),
        ]
        if counters.get("epochs_advanced"):
            lines.append(
                "  streaming: "
                + counted(
                    counters, "epochs_advanced", "stale_served",
                    "delta_patched", "delta_hit", "delta_fallback",
                )
            )
        lines.extend(self._binder_describe(stats))
        for name in ("queue_ms", "bind_ms", "total_ms"):
            summary = stats["histograms"].get(name)
            if summary and summary["count"]:
                lines.append(
                    f"  {name}: n={summary['count']} "
                    f"p50={summary['p50_ms']:.2f} p95={summary['p95_ms']:.2f} "
                    f"p99={summary['p99_ms']:.2f}"
                )
        return "\n".join(lines)


__all__ = ["ServiceCore", "accounting_ok"]
