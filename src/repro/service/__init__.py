"""repro.service — the concurrent inspector-compilation service.

The ROADMAP's serving layer: a thread-safe front door that lets many
concurrent clients submit bind/inspect requests (plan spec + dataset
handle) against shared datasets.  There is **one front end**
(:mod:`repro.service.core`: preparation, single-flight, admission,
epochs, deadlines, responses, stats) and **two binders** — where a
flight binds is the only thing the two services disagree about:
:class:`PlanService` binds in-thread off a parked queue,
:class:`FleetService` on supervised worker processes.  Both give

* **single-flight coalescing** — N concurrent identical requests cost
  one inspector run (keyed by the plan cache's content fingerprint);
* **admission control** — a bounded queue with a configurable
  backpressure policy (``block`` / ``reject`` / ``shed-oldest``) and
  per-request deadlines;
* **built-in telemetry** — counters (every request accounted), latency
  histograms (p50/p95/p99), and per-stage JSON-line tracing spans.

Beside them:

* **a supervised worker fleet** (:mod:`repro.service.fleet`) — the same
  request surface sharded across N worker *processes* by plan-cache
  fingerprint, with heartbeat supervision, crash restart, retry with
  deterministic backoff, per-shard circuit breakers, and in-process
  degradation when every shard is dark;
* **a chaos harness** (:mod:`repro.service.chaos`) — seed-deterministic
  worker kills, heartbeat stalls, latency spikes, and cache corruption,
  with a bit-identity bar: recovered responses must carry the same
  SHA-256 digests as the no-fault run.

Front ends: ``python -m repro serve`` (localhost HTTP or stdin/stdout,
``--shards N`` for the fleet), ``python -m repro bench-serve``
(closed-loop load generator, ``--chaos`` for fault campaigns), and the
``ServiceStats`` block in ``python -m repro doctor``.

Quick in-process use::

    from repro.service import BindRequest, PlanService, ServiceConfig

    spec = {"kernel": "moldyn", "steps": ["cpack", "lexgroup"]}
    with PlanService(ServiceConfig(workers=4)) as svc:
        response = svc.bind(BindRequest(spec=spec, dataset="mol1"))
        assert response.status == "ok"
"""

from repro.service.chaos import ChaosPlan, WorkerChaos
from repro.service.fleet import (
    FleetConfig,
    FleetService,
    HashRing,
    backoff_delay,
)
from repro.service.request import (
    BindRequest,
    BindResponse,
    DEADLINE_POLICIES,
    result_digests,
)
from repro.service.server import (
    EXECUTORS,
    OVERLOAD_POLICIES,
    PlanService,
    ServiceConfig,
    Ticket,
    service_self_check,
)
from repro.service.supervisor import CircuitBreaker, Supervisor
from repro.service.telemetry import (
    Counter,
    Histogram,
    JsonlSink,
    ListSink,
    Telemetry,
)

__all__ = [
    "BindRequest",
    "BindResponse",
    "ChaosPlan",
    "CircuitBreaker",
    "Counter",
    "DEADLINE_POLICIES",
    "EXECUTORS",
    "FleetConfig",
    "FleetService",
    "HashRing",
    "Histogram",
    "JsonlSink",
    "ListSink",
    "OVERLOAD_POLICIES",
    "PlanService",
    "ServiceConfig",
    "Supervisor",
    "Telemetry",
    "Ticket",
    "WorkerChaos",
    "backoff_delay",
    "result_digests",
    "service_self_check",
]
