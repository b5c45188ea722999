"""The single-process bind service (the front door).

:class:`PlanService` turns the batch pipeline into a system that takes
traffic: many concurrent clients submit :class:`BindRequest`s (plan spec
+ dataset handle) and receive :class:`BindResponse`s, with the inspector
work shared, bounded, and observable.

It is the shared front end (:class:`~repro.service.core.ServiceCore` —
preparation, single-flight coalescing, admission control, the epoch
ledger, deadlines, responses, stats; the request pipeline is drawn
there) plus what only a service that *parks* flights has:

* **a bounded queue and worker threads.**  An admitted flight waits on
  the queue until one of ``workers`` threads dequeues it; ``queue_depth``
  bounds the parked flights, not the running ones.  NumPy releases the
  GIL across the hot gathers, so in-thread binds overlap.
* **shed-oldest.**  With flights parked there is something to shed: the
  policy drops the oldest *queued* flight to admit the new one (its
  waiters get the typed error with ``shed=True``).
* **tickets.**  :meth:`PlanService.submit` returns before the bind runs;
  :meth:`PlanService.wait` redeems the :class:`Ticket`, and
  :meth:`PlanService.bind_result` hands in-process callers the live
  :class:`~repro.runtime.inspector.InspectorResult`.

Flights bind in-thread (:class:`~repro.service.binder.LocalBinder`)
against the service's :class:`~repro.plancache.PlanCache`, keyed by the
dataset's *content* fingerprint; every published epoch stays
materialized, so reads pinned to an older epoch are exact.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import (
    DeadlineExceededError,
    ServiceOverloadError,
    ValidationError,
)
from repro.service.binder import LocalBinder
from repro.service.core import ServiceCore, _Flight, _Waiter
from repro.service.request import BindRequest, BindResponse, result_digests
from repro.service.telemetry import Telemetry

#: Recognized backpressure policies for a full admission queue.
OVERLOAD_POLICIES = ("block", "reject", "shed-oldest")

#: Where flights run.  One value: the process-pool executor was removed
#: (``repro serve --shards N`` supersedes it), and the field survives
#: only because the frozen ``benchmarks/e2e/workloads.py`` passes
#: ``executor="threads"`` — drop both with the next benchmark PR.
EXECUTORS = ("threads",)


@dataclass
class ServiceConfig:
    """Tunables of one :class:`PlanService` instance."""

    workers: int = 4
    queue_depth: int = 64
    overload: str = "block"
    coalesce: bool = True
    executor: str = "threads"
    #: ``block`` admissions give up after this many seconds (None: wait
    #: forever); rejected with the typed overload error on timeout.
    admission_timeout_s: Optional[float] = None
    #: Scale for requests that do not pin one.
    default_scale: Optional[int] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValidationError(
                f"workers must be >= 1, got {self.workers}", stage="service"
            )
        if self.queue_depth < 1:
            raise ValidationError(
                f"queue_depth must be >= 1, got {self.queue_depth}",
                stage="service",
            )
        if self.overload not in OVERLOAD_POLICIES:
            raise ValidationError(
                f"unknown overload policy {self.overload!r}",
                stage="service",
                hint=f"choose one of {OVERLOAD_POLICIES}",
            )
        if self.executor not in EXECUTORS:
            raise ValidationError(
                f"unknown executor {self.executor!r}",
                stage="service",
                hint=f"choose one of {EXECUTORS}",
            )


@dataclass
class Ticket:
    """Handle returned by :meth:`PlanService.submit`; redeem via ``wait``."""

    flight: _Flight
    waiter: _Waiter
    request: BindRequest = field(init=False)

    def __post_init__(self):
        self.request = self.waiter.request


class PlanService(ServiceCore):
    """Thread-safe, queue-based plan-compilation and inspection service.

    Use as a context manager (workers start on entry, drain on exit), or
    call :meth:`start`/:meth:`stop` explicitly::

        with PlanService(ServiceConfig(workers=4), cache=PlanCache()) as svc:
            response = svc.bind(BindRequest(spec=spec, dataset="mol1"))
    """

    PINNED_READS = True

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        cache=None,
        telemetry: Optional[Telemetry] = None,
    ):
        config = config if config is not None else ServiceConfig()
        super().__init__(config, telemetry, coalesce=config.coalesce)
        self.cache = cache
        self._local = LocalBinder(cache, self.telemetry)
        self._work_ready = threading.Condition(self._lock)
        self._queue: "deque[_Flight]" = deque()
        self._threads: List[threading.Thread] = []

    # -- the binder: in-thread, against the service's cache --------------------

    def _bind_flight(self, flight: _Flight) -> dict:
        return self._local.bind(flight)

    def _dataset_identity(self, kernel, request, epoch, chain) -> str:
        """Content fingerprint: two handles with equal bytes coalesce."""
        _, fingerprint = self._local.resolve(
            kernel, request.dataset, request.scale, epoch, chain
        )
        return fingerprint

    def _epoch_advancing(self, handle, chain) -> None:
        """Materialize the new epoch before it is published — under the
        binder's lock, the same single-flight discipline as
        :meth:`preload_handle` — so a delta that does not apply raises
        here and publishes nothing, and the parent epoch stays retained
        for pinned reads and the delta-bind path."""
        self._local.resolve(*handle, len(chain), chain)

    def preload_handle(self, kernel: str, dataset: str, scale: int) -> str:
        """Materialize one dataset handle ahead of traffic; returns its
        content fingerprint.  Servers call this at startup so the first
        real request doesn't pay dataset generation (``repro serve``
        does, and the benchmarks preload so they measure steady-state
        serving rather than one cold materialization per mode)."""
        _, fingerprint = self._local.resolve(kernel, dataset, int(scale))
        return fingerprint

    # -- the parked queue and its workers --------------------------------------

    def _start_binder(self) -> None:
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _stop_binder(self, drain: bool) -> None:
        """Join the workers; queued flights are shed unless ``drain``."""
        with self._lock:
            if not drain:
                while self._queue:
                    self._shed_oldest_locked()
            self._work_ready.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads = []
        with self._lock:
            # Anything a worker never picked up (stop raced submit).
            while self._queue:
                self._shed_oldest_locked()

    def _backlog_locked(self) -> int:
        return len(self._queue)

    def _admitted_locked(self, flight: _Flight) -> None:
        self._queue.append(flight)
        self.telemetry.emit_span(
            "enqueue", flight.request.request_id, 0.0,
            queue_len=len(self._queue),
        )
        self._work_ready.notify()

    def _shed_oldest_locked(self) -> None:
        """Drop the oldest queued flight; re-classify its waiters as shed."""
        flight = self._queue.popleft()
        flight.error = ServiceOverloadError(
            "request shed from the admission queue (shed-oldest policy)",
            shed=True,
            stage="service",
            hint="resubmit, or switch the service to the block policy",
        )
        self._resolved_locked(flight)
        leads = sum(1 for w in flight.waiters if w.lead)
        # Exact accounting: a shed waiter moves from its admission
        # bucket into ``shed`` so the invariant
        # accepted + coalesced + rejected + shed == submitted holds.
        self.telemetry.counter("accepted").add(-leads)
        self.telemetry.counter("coalesced").add(leads - len(flight.waiters))
        self.telemetry.counter("shed").add(len(flight.waiters))
        for w in flight.waiters:
            self.telemetry.emit_span("shed", w.request.request_id, 0.0)
        flight.event.set()

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopping:
                    self._work_ready.wait()
                if not self._queue:
                    return
                # Off the queue a flight can no longer be shed.
                flight = self._queue.popleft()
                self._capacity.notify()
            self._execute(flight)

    # -- tickets ---------------------------------------------------------------

    def submit(self, request: BindRequest) -> Ticket:
        """Admit one request; returns a :class:`Ticket` to wait on.

        Raises the typed admission errors of
        :meth:`~repro.service.core.ServiceCore._attach` (in-process
        callers that prefer error *responses* use :meth:`bind`).
        """
        return Ticket(*self._attach(request, self.telemetry.now()))

    def wait(self, ticket: Ticket) -> BindResponse:
        """Block until the ticket's flight resolves (or its deadline)."""
        return self._await(ticket.flight, ticket.waiter)

    def bind_result(self, request: BindRequest):
        """Submit, wait, and return the live ``InspectorResult``.

        For in-process callers that need the realized arrays (not just
        digests).  Raises the flight's typed error on failure.
        """
        ticket = self.submit(request)
        response = self.wait(ticket)
        if response.status != "ok":
            if ticket.flight.error is not None:
                raise ticket.flight.error
            raise DeadlineExceededError(
                response.error["message"] if response.error else "deadline",
                stage="service",
            )
        return ticket.flight.result

    # -- stats -----------------------------------------------------------------

    def _binder_config(self) -> dict:
        return {
            "workers": self.config.workers,
            "coalesce": self.config.coalesce,
        }

    def _binder_describe(self, stats: dict) -> List[str]:
        return [
            f"  workers: {self.config.workers}  coalesce: "
            f"{'on' if self.config.coalesce else 'off'}"
        ]


# ---------------------------------------------------------------------------
# Self-check (the ``repro doctor`` ServiceStats block).


def service_self_check(scale: Optional[int] = None) -> dict:
    """Spin up a tiny in-process service and exercise the contract.

    Submits a small duplicate-heavy burst, then reports the counters,
    the accounting invariant, whether single-flight coalescing engaged,
    and whether every response was bit-identical to a direct
    ``CompositionPlan.bind()``.  Used by ``repro doctor``.
    """
    from repro.kernels.datasets import DEFAULT_SCALE
    from repro.runtime.planspec import plan_from_spec

    if scale is None:
        scale = max(DEFAULT_SCALE, 256)  # tiny dataset: this is a probe
    spec = {
        "kernel": "moldyn",
        "steps": [{"type": "cpack"}, {"type": "lexgroup"}],
    }
    with PlanService(ServiceConfig(workers=2, queue_depth=16)) as svc:
        tickets = [
            svc.submit(
                BindRequest(spec=dict(spec), dataset="mol1", scale=scale)
            )
            for _ in range(6)
        ]
        responses = [svc.wait(t) for t in tickets]
        stats = svc.stats()
        data, _ = svc._local.resolve("moldyn", "mol1", scale)
    direct = plan_from_spec(spec).bind(data)
    expected = result_digests(direct)
    bit_identical = all(
        r.status == "ok" and r.fingerprints == expected for r in responses
    )
    return {
        "requests": len(responses),
        "counters": stats["counters"],
        "accounting_ok": stats["accounting_ok"],
        "coalesced": stats["counters"].get("coalesced", 0),
        "bit_identical": bit_identical,
        "p50_total_ms": stats["histograms"]["total_ms"]["p50_ms"],
        "ok": bool(
            bit_identical
            and stats["accounting_ok"]
            and stats["counters"].get("failed", 0) == 0
        ),
    }


__all__ = [
    "EXECUTORS",
    "OVERLOAD_POLICIES",
    "PlanService",
    "ServiceConfig",
    "Ticket",
    "service_self_check",
]
