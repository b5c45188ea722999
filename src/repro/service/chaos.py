"""Process-level chaos harness for the sharded bind fleet.

:mod:`repro.runtime.faults` attacks the pipeline's *values* (corrupt one
stage's σ/δ and prove the guards catch it).  This module attacks the
fleet's *processes* — the failure modes a multi-process service tier
actually dies from:

* ``kill``    — SIGKILL a shard worker mid-bind (crash recovery: the
  request must be retried on a surviving/respawned shard);
* ``stall``   — freeze a worker's heartbeat thread so the supervisor
  declares it wedged and kill-restarts it (liveness deadline);
* ``slow``    — inject a latency spike before a bind (deadline and
  retry-budget pressure without killing anything);
* ``corrupt`` — truncate a shared plan-cache artifact on disk (the
  quarantining :class:`~repro.plancache.store.DiskStore` must degrade it
  to an observable safe miss, never to reused bad state).

Everything is **deterministic**: a :class:`ChaosPlan` carries one seed
plus per-injector rates, and every fire/no-fire decision is a pure
function of ``(seed, injector, request sequence number)`` — re-running a
chaos campaign with the same plan and workload replays exactly the same
faults.  Plans serialize to JSON (:meth:`ChaosPlan.to_dict`) and travel
to each worker process in its start-up options, so a respawned worker
rejoins the same campaign.

The correctness bar chaos runs enforce (see ``tests/service/test_chaos``
and ``benchmarks/bench_ext_fleet.py``): every recovered request's
SHA-256 response digests are bit-identical to the no-fault run —
recovery is only correct if it is invisible.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro import backends
from repro.errors import ValidationError
from repro.plancache.filestore import FileStore

#: The recognized injectors (rate fields are ``<name>_rate``).
INJECTORS = ("kill", "stall", "slow", "corrupt")


def _unit_interval(seed: int, injector: str, sequence: int) -> float:
    """Deterministic uniform draw in [0, 1) for one decision point."""
    digest = hashlib.sha256(
        f"{seed}:{injector}:{sequence}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass
class ChaosPlan:
    """One reproducible chaos campaign: a seed plus per-injector rates.

    Rates are per *dispatch* probabilities in [0, 1]; the decision for
    dispatch ``n`` is a pure function of ``(seed, injector, n)``, so two
    runs of the same workload under the same plan inject identical
    faults at identical points.
    """

    seed: int = 0
    kill_rate: float = 0.0
    stall_rate: float = 0.0
    slow_rate: float = 0.0
    corrupt_rate: float = 0.0
    #: Latency spike injected by ``slow`` (seconds).
    slow_s: float = 0.2
    #: How long ``stall`` freezes the heartbeat thread (seconds); set it
    #: above the supervisor's liveness deadline to force a kill-restart.
    stall_s: float = 2.0
    #: Delay between accepting a doomed request and the SIGKILL, so the
    #: kill lands mid-bind rather than between requests.
    kill_delay_s: float = 0.01

    def __post_init__(self):
        for name in INJECTORS:
            rate = getattr(self, f"{name}_rate")
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(
                    f"{name}_rate must be in [0, 1], got {rate}",
                    stage="chaos",
                )
        for name in ("slow_s", "stall_s", "kill_delay_s"):
            if getattr(self, name) < 0:
                raise ValidationError(
                    f"{name} must be non-negative, got {getattr(self, name)}",
                    stage="chaos",
                )

    @property
    def enabled(self) -> bool:
        return any(getattr(self, f"{name}_rate") > 0 for name in INJECTORS)

    def fires(self, injector: str, sequence: int) -> bool:
        """Does ``injector`` fire on dispatch ``sequence``?  Pure."""
        if injector not in INJECTORS:
            raise ValidationError(
                f"unknown chaos injector {injector!r}",
                stage="chaos",
                hint=f"choose one of {INJECTORS}",
            )
        rate = getattr(self, f"{injector}_rate")
        if rate <= 0.0:
            return False
        return _unit_interval(self.seed, injector, sequence) < rate

    def schedule(self, injector: str, first: int, count: int) -> List[int]:
        """The dispatch sequence numbers in [first, first+count) on which
        ``injector`` fires — chaos tests use this to know, ahead of time,
        exactly which requests will be attacked."""
        return [
            seq for seq in range(first, first + count)
            if self.fires(injector, seq)
        ]

    @classmethod
    def from_dict(cls, payload: dict) -> "ChaosPlan":
        if not isinstance(payload, dict):
            raise ValidationError(
                f"chaos plan must be a JSON object, got "
                f"{type(payload).__name__}",
                stage="chaos",
            )
        known = {
            "seed", "kill_rate", "stall_rate", "slow_rate", "corrupt_rate",
            "slow_s", "stall_s", "kill_delay_s",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(
                f"unknown chaos plan key(s) {sorted(unknown)}",
                stage="chaos",
            )
        return cls(**payload)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "kill_rate": self.kill_rate,
            "stall_rate": self.stall_rate,
            "slow_rate": self.slow_rate,
            "corrupt_rate": self.corrupt_rate,
            "slow_s": self.slow_s,
            "stall_s": self.stall_s,
            "kill_delay_s": self.kill_delay_s,
        }

    def to_env(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_env(cls, value: Optional[str] = None) -> Optional["ChaosPlan"]:
        """The plan ``value`` (default: ``REPRO_CHAOS_PLAN``) describes
        (``None``: no chaos)."""
        if value is None:
            value = backends.read(backends.CHAOS_PLAN)
        if not value:
            return None
        plan = cls.from_dict(json.loads(value))
        return plan if plan.enabled else None

    def describe(self) -> str:
        rates = "  ".join(
            f"{name}={getattr(self, f'{name}_rate'):.2f}" for name in INJECTORS
        )
        return f"chaos plan: seed={self.seed}  {rates}"


# ---------------------------------------------------------------------------
# Worker-side injectors (run inside the shard process).


class WorkerChaos:
    """Applies a :class:`ChaosPlan`'s in-process injectors to one worker.

    The fleet worker calls :meth:`before_bind` with each request's fleet-
    assigned dispatch sequence number (global across shards and retries,
    so a retried request is a *new* decision point — the retry must be
    able to succeed).
    """

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        #: Monotonic deadline until which the heartbeat thread must stall.
        self.stall_until = 0.0
        self._stall_lock = threading.Lock()

    def heartbeat_gate(self) -> None:
        """Called by the heartbeat thread each tick; honors a stall."""
        with self._stall_lock:
            remaining = self.stall_until - time.monotonic()
        if remaining > 0:
            time.sleep(remaining)

    def before_bind(self, sequence: int) -> None:
        plan = self.plan
        if plan.fires("stall", sequence):
            with self._stall_lock:
                self.stall_until = time.monotonic() + plan.stall_s
        if plan.fires("kill", sequence):
            # Arm the kill on a timer so the SIGKILL lands mid-bind; the
            # signal is not catchable, so this worker *will* die and the
            # fleet must recover the request elsewhere.
            timer = threading.Timer(
                plan.kill_delay_s,
                os.kill,
                args=(os.getpid(), signal.SIGKILL),
            )
            timer.daemon = True
            timer.start()
        if plan.fires("slow", sequence):
            time.sleep(plan.slow_s)


# ---------------------------------------------------------------------------
# Parent-side injector: shared-cache artifact corruption.


@dataclass
class CacheCorruptor:
    """Deterministically corrupts shared plan-cache artifacts on disk.

    Runs in the fleet parent (the cache directory is shared state, so
    the injector does not need to live inside any worker).  On each
    firing dispatch it picks one live ``.npz`` artifact — chosen by the
    same seeded draw, over the sorted listing, so runs are reproducible
    given the same cache contents — and truncates it to a prefix.  The
    quarantining :class:`~repro.plancache.store.DiskStore` must turn
    that into an observable safe miss (``corrupt_quarantined``), never
    into reused bad state.
    """

    plan: ChaosPlan
    directory: Path
    corrupted: int = 0
    _targets: List[str] = field(default_factory=list)

    def maybe_corrupt(self, sequence: int) -> Optional[Path]:
        if not self.plan.fires("corrupt", sequence):
            return None
        artifacts = sorted(
            path for path, _ in FileStore(self.directory, ".npz").scan()
        )
        if not artifacts:
            return None
        draw = _unit_interval(self.plan.seed, "corrupt-target", sequence)
        target = artifacts[int(draw * len(artifacts)) % len(artifacts)]
        try:
            data = target.read_bytes()
            target.write_bytes(data[: max(1, len(data) // 3)])
        except OSError:
            return None  # a peer evicted it mid-corruption: nothing to do
        self.corrupted += 1
        self._targets.append(target.stem)
        return target

    @property
    def targets(self) -> List[str]:
        return list(self._targets)


__all__ = [
    "CacheCorruptor",
    "ChaosPlan",
    "INJECTORS",
    "WorkerChaos",
]
