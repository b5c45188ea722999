"""Chaos campaigns: deterministic process-level faults, invisible recovery.

Every test pins a ``ChaosPlan`` seed and asserts against the *known*
fault schedule (``plan.schedule`` is a pure function), so these are
repeatable regression tests, not flaky roulette.  The bar throughout:
a recovered request's SHA-256 digests must be bit-identical to the
no-fault run.
"""

import time

import pytest

from repro.errors import ValidationError
from repro.plancache.store import QUARANTINE_DIR
from repro.service import ChaosPlan, FleetConfig, FleetService
from repro.service.chaos import CacheCorruptor, WorkerChaos

from tests.service.conftest import direct_digests, make_request

pytestmark = [pytest.mark.service, pytest.mark.chaos]


def fleet_config(tmp_path, **overrides):
    overrides.setdefault("shards", 2)
    overrides.setdefault("cache_dir", str(tmp_path / "fleet-cache"))
    overrides.setdefault("backoff_base_s", 0.01)
    overrides.setdefault("attempt_timeout_s", 30.0)
    return FleetConfig(**overrides)


def await_respawns(fleet, timeout_s=5.0):
    """Wait until every crashed worker is back — for asserting on the
    restart counters, never before a bind: a bind that meets a shard
    whose worker is dead but not yet respawned routes past it."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        counters = fleet.stats()["counters"]
        if counters.get("worker_restarts", 0) >= counters.get(
            "worker_crashes", 0
        ):
            return
        time.sleep(0.01)


class TestChaosPlanDeterminism:
    def test_fires_is_a_pure_function(self):
        plan = ChaosPlan(seed=11, kill_rate=0.3)
        first = [plan.fires("kill", seq) for seq in range(64)]
        second = [plan.fires("kill", seq) for seq in range(64)]
        assert first == second
        assert ChaosPlan(seed=11, kill_rate=0.3).schedule(
            "kill", 0, 64
        ) == plan.schedule("kill", 0, 64)

    def test_different_seeds_differ(self):
        a = ChaosPlan(seed=1, kill_rate=0.3).schedule("kill", 0, 128)
        b = ChaosPlan(seed=2, kill_rate=0.3).schedule("kill", 0, 128)
        assert a != b

    def test_rate_meaning(self):
        assert ChaosPlan(seed=5).schedule("kill", 0, 100) == []
        everything = ChaosPlan(seed=5, kill_rate=1.0).schedule("kill", 0, 100)
        assert everything == list(range(100))
        some = ChaosPlan(seed=5, kill_rate=0.25).schedule("kill", 0, 400)
        assert 40 < len(some) < 160  # loose band around 100

    def test_env_round_trip(self):
        plan = ChaosPlan(seed=9, kill_rate=0.1, stall_rate=0.2, slow_s=0.5)
        assert ChaosPlan.from_env(plan.to_env()) == plan
        assert ChaosPlan.from_env("") is None
        # An all-zero plan is "no chaos", not a campaign.
        assert ChaosPlan.from_env(ChaosPlan(seed=3).to_env()) is None

    def test_validation(self):
        with pytest.raises(ValidationError):
            ChaosPlan(kill_rate=1.5)
        with pytest.raises(ValidationError):
            ChaosPlan(slow_s=-1.0)
        with pytest.raises(ValidationError):
            ChaosPlan().fires("meteor", 0)
        with pytest.raises(ValidationError):
            ChaosPlan.from_dict({"seed": 0, "meteor_rate": 1.0})


class TestInjectors:
    def test_slow_injects_latency(self):
        chaos = WorkerChaos(ChaosPlan(seed=0, slow_rate=1.0, slow_s=0.05))
        start = time.monotonic()
        chaos.before_bind(0)
        assert time.monotonic() - start >= 0.05

    def test_stall_gates_the_heartbeat(self):
        chaos = WorkerChaos(ChaosPlan(seed=0, stall_rate=1.0, stall_s=0.08))
        chaos.before_bind(0)
        start = time.monotonic()
        chaos.heartbeat_gate()
        assert time.monotonic() - start >= 0.05

    def test_corruptor_attacks_only_live_artifacts(self, tmp_path):
        import numpy as np

        from repro.plancache import CacheEntry, DiskStore

        store = DiskStore(tmp_path / "cache")
        path = store.put(
            "ab" + "0" * 62,
            CacheEntry(meta={}, arrays={"a": np.arange(4)}),
        )
        quarantined = store.quarantine_dir / "old.npz"
        quarantined.parent.mkdir(parents=True, exist_ok=True)
        quarantined.write_bytes(b"junk")
        corruptor = CacheCorruptor(
            ChaosPlan(seed=0, corrupt_rate=1.0), tmp_path / "cache"
        )
        target = corruptor.maybe_corrupt(0)
        assert target == path
        assert corruptor.corrupted == 1
        assert quarantined.read_bytes() == b"junk"


class TestKillRecovery:
    def test_sigkill_mid_bind_bit_identical_to_no_fault_run(self, tmp_path):
        expected = direct_digests()
        # seed=7 kills dispatches 0, 4, 5, 7 — so request 1 (dispatch 0)
        # is attacked and its retry (dispatch 1) survives; requests on
        # dispatches 2 and 3 run clean.
        plan = ChaosPlan(seed=7, kill_rate=0.5, kill_delay_s=0.0)
        assert plan.schedule("kill", 0, 4) == [0]
        config = fleet_config(tmp_path, chaos=plan)
        with FleetService(config) as fleet:
            responses = [fleet.bind(make_request()) for _ in range(3)]
            await_respawns(fleet)
            counters = fleet.stats()["counters"]
        assert [r.status for r in responses] == ["ok"] * 3
        assert all(r.fingerprints == expected for r in responses)
        assert counters["worker_crashes"] == 1
        assert counters["worker_restarts"] >= 1

    def test_bind_inside_the_respawn_window_routes_past_the_dead_shard(
        self, tmp_path
    ):
        """A shard whose worker died and is not respawned yet (the
        supervisor polls; here it is made to poll late) never receives
        the dispatch: no attempt burnt, no crash counted, no retry, no
        backoff — the next shard serves, bit-identically."""
        import json

        from repro.service.telemetry import Telemetry

        spans = []
        config = fleet_config(tmp_path, supervisor_poll_s=30.0)
        telemetry = Telemetry(sink=spans.append)
        with FleetService(config, telemetry) as fleet:
            first = fleet.bind(make_request())

            def responded():
                return [
                    span for span in map(json.loads, spans)
                    if span["stage"] == "respond"
                ]

            home = responded()[-1]["shard"]
            handle = fleet.supervisor.handles[home]
            handle.kill()
            handle.process.join(timeout=5.0)
            assert not handle.alive
            second = fleet.bind(make_request())
            counters = fleet.stats()["counters"]
            served = responded()[-1]
        assert (first.status, second.status) == ("ok", "ok")
        assert second.fingerprints == first.fingerprints == direct_digests()
        assert served["attempts"] == 1 and served["shard"] != home
        assert not served["fallback"]
        assert counters.get("worker_crashes", 0) == 0
        assert counters.get("retries", 0) == 0

    def test_two_campaign_runs_inject_identically(self, tmp_path):
        plan = ChaosPlan(seed=13, kill_rate=0.4, kill_delay_s=0.0)

        def run(directory):
            with FleetService(
                fleet_config(directory, chaos=plan)
            ) as fleet:
                statuses = []
                for _ in range(3):
                    statuses.append(fleet.bind(make_request()).status)
                counters = fleet.stats()["counters"]
            return statuses, counters.get("worker_crashes", 0)

        first = run(tmp_path / "a")
        second = run(tmp_path / "b")
        assert first == second


class TestStallRecovery:
    def test_wedged_worker_is_killed_and_restarted(self, tmp_path):
        # Stall fires on dispatch 0: the worker serves the bind fine but
        # its heartbeat freezes past the liveness deadline — the
        # supervisor must kill-restart it without losing any request.
        plan = ChaosPlan(seed=0, stall_rate=0.4, stall_s=3.0)
        assert plan.fires("stall", 0)
        config = fleet_config(
            tmp_path,
            chaos=plan,
            liveness_deadline_s=0.3,
            supervisor_poll_s=0.05,
        )
        with FleetService(config) as fleet:
            first = fleet.bind(make_request())
            assert first.status == "ok"
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                counters = fleet.stats()["counters"]
                # The restart is counted after the kill and the respawn.
                if counters.get("workers_wedged", 0) >= 1 and counters.get(
                    "worker_restarts", 0
                ):
                    break
                time.sleep(0.05)
            counters = fleet.stats()["counters"]
            assert counters.get("workers_wedged", 0) >= 1
            assert counters.get("worker_restarts", 0) >= 1
            # The fleet keeps serving after the restart, bit-identically.
            again = fleet.bind(make_request())
            assert again.status == "ok"
            assert again.fingerprints == direct_digests()


class TestCorruptionRecovery:
    def test_corrupted_artifact_quarantined_then_recomputed(self, tmp_path):
        cache_dir = tmp_path / "shared-cache"
        # Warm the shared L2 with a clean artifact.
        with FleetService(
            fleet_config(tmp_path, cache_dir=str(cache_dir))
        ) as fleet:
            warm = fleet.bind(make_request())
        assert warm.status == "ok"
        assert list(cache_dir.glob("*/*.npz"))

        # Corruption fires on dispatch 0 of the next campaign; the fresh
        # fleet's workers (cold memory tier) must hit the torn artifact,
        # quarantine it, and recompute bit-identically.
        plan = ChaosPlan(seed=2, corrupt_rate=0.3)
        assert plan.fires("corrupt", 0)
        with FleetService(
            fleet_config(tmp_path, cache_dir=str(cache_dir), chaos=plan)
        ) as fleet:
            response = fleet.bind(make_request())
            assert fleet.corruptor is not None
            assert fleet.corruptor.corrupted == 1
        assert response.status == "ok"
        assert response.fingerprints == warm.fingerprints
        assert response.fingerprints == direct_digests()
        quarantine = cache_dir / QUARANTINE_DIR
        assert list(quarantine.glob("*.npz"))
