"""Fleet: the shared front-end contract on ``FleetService(shards=1)``,
plus what only the sharded binder has — routing, breakers, crash
recovery, deadline inheritance across retries.

The contract bodies live in ``tests/service/contract.py``
(``test_server.py`` runs the same ones on ``PlanService``).  Chaos here
is deterministic (``ChaosPlan`` seeds chosen so the schedule
is known ahead of time), so every recovery path is exercised on purpose
rather than by luck — and each recovered response is checked
bit-identical to a direct ``CompositionPlan.bind()``.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    DeadlineExceededError,
    ServiceOverloadError,
    ValidationError,
)
from repro.service import (
    ChaosPlan,
    CircuitBreaker,
    FleetConfig,
    FleetService,
    HashRing,
    PlanService,
    ServiceConfig,
    backoff_delay,
)

from tests.service.conftest import direct_digests, make_request
from tests.service.contract import (
    AdmissionContract,
    CoalescingContract,
    DeadlinesContract,
    OnFleetService,
    check_accounting_under_load,
    invariant_holds,
)

pytestmark = pytest.mark.service


def fleet_config(tmp_path, **overrides):
    overrides.setdefault("shards", 2)
    overrides.setdefault("cache_dir", str(tmp_path / "fleet-cache"))
    overrides.setdefault("attempt_timeout_s", 30.0)
    return FleetConfig(**overrides)


class TestHashRing:
    def test_routing_is_deterministic(self):
        ring = HashRing(shards=4)
        assert ring.route("some-key") == ring.route("some-key")
        assert HashRing(shards=4).route("some-key") == ring.route("some-key")

    def test_exclusion_walks_to_a_survivor(self):
        ring = HashRing(shards=3)
        key = "a-fingerprint"
        primary = ring.route(key)
        fallback = ring.route(key, exclude={primary})
        assert fallback is not None and fallback != primary
        assert ring.route(key, exclude={0, 1, 2}) is None

    def test_keys_spread_across_shards(self):
        ring = HashRing(shards=4)
        owners = {ring.route(f"key-{i}") for i in range(256)}
        assert owners == {0, 1, 2, 3}

    def test_membership_change_moves_only_some_keys(self):
        small, large = HashRing(shards=3), HashRing(shards=4)
        keys = [f"key-{i}" for i in range(512)]
        moved = sum(1 for k in keys if small.route(k) != large.route(k))
        # Consistent hashing: adding one shard should move roughly 1/4
        # of the keys, not rehash everything.
        assert 0 < moved < len(keys) // 2


class TestBackoff:
    def test_deterministic_and_bounded(self):
        a = backoff_delay(0.02, 0.5, "r1", 1, seed=3)
        assert a == backoff_delay(0.02, 0.5, "r1", 1, seed=3)
        assert a != backoff_delay(0.02, 0.5, "r2", 1, seed=3)
        for attempt in range(12):
            d = backoff_delay(0.02, 0.5, "r1", attempt)
            assert 0 <= d <= 0.5

    def test_grows_exponentially_on_average(self):
        early = backoff_delay(0.02, 60.0, "r", 0)
        late = backoff_delay(0.02, 60.0, "r", 6)
        assert late > early


class TestCircuitBreaker:
    def test_state_machine_full_cycle(self):
        clock = {"t": 0.0}
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=2,
            cooldown_s=1.0,
            clock=lambda: clock["t"],
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # still cooling down
        clock["t"] = 1.5
        assert breaker.allow()  # the half-open probe slot
        assert breaker.state == "half-open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()
        assert ("closed", "open") in transitions
        assert ("half-open", "closed") in transitions

    def test_failed_probe_reopens(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=1.0, clock=lambda: clock["t"]
        )
        breaker.record_failure()
        clock["t"] = 2.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"

    def test_force_open_latches(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(cooldown_s=0.1, clock=lambda: clock["t"])
        breaker.force_open()
        clock["t"] = 100.0
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == "open" and not breaker.allow()


class TestFleetCoalescing(CoalescingContract, OnFleetService):
    pass


class TestFleetAdmissionControl(AdmissionContract, OnFleetService):
    pass


class TestFleetDeadlines(DeadlinesContract, OnFleetService):
    pass


class TestWireShape:
    def test_both_services_answer_with_the_same_keys(self, tmp_path):
        """One wire format: the same request gets the same keys back
        from either service, for an answer and for a typed error."""

        def shape(payload):
            return {
                key: shape(value) if isinstance(value, dict) else None
                for key, value in payload.items()
                if key not in ("report", "fingerprints", "overhead")
            }

        shapes = []
        for service in (
            PlanService(ServiceConfig(workers=2), cache=None),
            FleetService(fleet_config(tmp_path, shards=1)),
        ):
            with service:
                ok = service.bind(make_request()).to_dict()
                late = service.bind(make_request(deadline_s=0.0)).to_dict()
            assert ok["status"] == "ok" and late["status"] == "error"
            assert "queue_ms" in ok["timing"]
            assert "attempts" in late["error"]
            shapes.append((shape(ok), shape(late)))
        assert shapes[0] == shapes[1]


class TestFleetServing:
    def test_bind_is_bit_identical_to_direct(self, tmp_path):
        with FleetService(fleet_config(tmp_path)) as fleet:
            response = fleet.bind(make_request())
            assert response.status == "ok"
            assert response.fingerprints == direct_digests()
            assert invariant_holds(fleet)

    def test_second_bind_warm_starts_from_shared_disk(self, tmp_path):
        config = fleet_config(tmp_path)
        with FleetService(config) as fleet:
            first = fleet.bind(make_request())
        # A brand-new fleet (fresh workers) over the same cache dir.
        with FleetService(fleet_config(tmp_path)) as fleet:
            second = fleet.bind(make_request())
        assert first.cache == "stored"
        assert second.cache == "hit"
        assert first.fingerprints == second.fingerprints

    def test_identical_concurrent_requests_coalesce(self, tmp_path):
        with FleetService(fleet_config(tmp_path)) as fleet:
            barrier = threading.Barrier(6)
            responses = [None] * 6

            def client(i):
                barrier.wait()
                responses[i] = fleet.bind(make_request())

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            counters = fleet.stats()["counters"]
            assert all(r.status == "ok" for r in responses)
            assert counters["coalesced"] == sum(
                1 for r in responses if r.coalesced
            )
            assert invariant_holds(fleet)

    def test_bind_before_start_is_a_typed_rejection(self, tmp_path):
        fleet = FleetService(fleet_config(tmp_path))
        response = fleet.bind(make_request())
        assert response.status == "error"
        assert response.error["type"] == "ServiceOverloadError"

    def test_malformed_spec_rejected_not_retried(self, tmp_path):
        with FleetService(fleet_config(tmp_path)) as fleet:
            response = fleet.bind(
                make_request(spec={"kernel": "moldyn", "steps": ["nope"]})
            )
            counters = fleet.stats()["counters"]
            assert response.status == "error"
            assert counters.get("retries", 0) == 0
            assert invariant_holds(fleet)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            FleetConfig(shards=0)
        with pytest.raises(ValidationError):
            FleetConfig(overload="shed-oldest")
        with pytest.raises(ValidationError):
            FleetConfig(fallback="nope")


class TestCrashRecovery:
    def test_kill_mid_bind_recovers_bit_identically(self, tmp_path):
        # seed=7 kills dispatch 0; the retry (dispatch 1) survives.
        plan = ChaosPlan(seed=7, kill_rate=0.5, kill_delay_s=0.0)
        assert plan.fires("kill", 0) and not plan.fires("kill", 1)
        config = fleet_config(tmp_path, chaos=plan, backoff_base_s=0.01)
        with FleetService(config) as fleet:
            response = fleet.bind(make_request())
            counters = fleet.stats()["counters"]
            assert response.status == "ok"
            assert response.fingerprints == direct_digests()
            assert counters["worker_crashes"] == 1
            assert counters["retries"] == 1
            assert invariant_holds(fleet)

    def test_all_shards_dark_degrades_to_in_process(self, tmp_path):
        plan = ChaosPlan(seed=3, kill_rate=1.0, kill_delay_s=0.0)
        config = fleet_config(
            tmp_path,
            chaos=plan,
            max_retries=8,
            # One crash opens a breaker.  (A dispatch that meets a dead,
            # not yet respawned worker is routed past, not counted as a
            # second failure — so the threshold cannot be reached by
            # hammering a corpse.)
            failure_threshold=1,
            breaker_cooldown_s=60.0,  # stay open for the whole test
            backoff_base_s=0.005,
            attempt_timeout_s=5.0,
        )
        with FleetService(config) as fleet:
            response = fleet.bind(make_request())
            stats = fleet.stats()
            assert response.status == "ok"
            assert response.fingerprints == direct_digests()
            assert stats["counters"]["fallback_binds"] == 1
            assert all(s["breaker"] == "open" for s in stats["shards"])
            assert invariant_holds(fleet)

    def test_restart_budget_exhaustion_latches_shard_dark(self, tmp_path):
        plan = ChaosPlan(seed=3, kill_rate=1.0, kill_delay_s=0.0)
        config = fleet_config(
            tmp_path,
            shards=1,
            chaos=plan,
            max_retries=3,
            failure_threshold=2,
            breaker_cooldown_s=60.0,
            restart_budget=0,  # the first crash exhausts the budget
            supervisor_poll_s=0.02,
            backoff_base_s=0.005,
            attempt_timeout_s=5.0,
        )
        with FleetService(config) as fleet:
            response = fleet.bind(make_request())
            assert response.status == "ok"  # served by the fallback
            deadline = fleet.telemetry.now() + 5.0
            while fleet.telemetry.now() < deadline:
                if any(s["dark"] for s in fleet.supervisor.stats()):
                    break
                threading.Event().wait(0.05)
            stats = fleet.stats()
            assert any(s["dark"] for s in stats["shards"])
            assert stats["counters"].get("shards_dark", 0) >= 1


class TestDeadlineInheritance:
    def test_retries_inherit_budget_one_deadline_error(self, tmp_path):
        """Regression: a request retried past its deadline raises
        DeadlineExceededError exactly once in the stats — retries run on
        the *remaining* budget, never a fresh one."""
        plan = ChaosPlan(seed=3, kill_rate=1.0, kill_delay_s=0.0)
        config = fleet_config(
            tmp_path,
            chaos=plan,
            max_retries=50,
            failure_threshold=1000,  # breakers never open: pure retry loop
            backoff_base_s=0.05,
            attempt_timeout_s=5.0,
        )
        with FleetService(config) as fleet:
            response = fleet.bind(make_request(deadline_s=0.2))
            counters = fleet.stats()["counters"]
            assert response.status == "error"
            assert response.error["type"] == "DeadlineExceededError"
            assert counters["deadline_raised"] == 1
            assert counters["failed"] == 1
            # The loop gave up well before exhausting its 50 retries.
            assert counters.get("retries", 0) < 50
            assert invariant_holds(fleet)

    def test_deadline_not_charged_on_success(self, tmp_path):
        with FleetService(fleet_config(tmp_path)) as fleet:
            response = fleet.bind(make_request(deadline_s=30.0))
            counters = fleet.stats()["counters"]
            assert response.status == "ok"
            assert counters.get("deadline_raised", 0) == 0


class TestDrainFleet:
    def test_drain_rejects_new_submissions(self, tmp_path):
        with FleetService(fleet_config(tmp_path)) as fleet:
            fleet.bind(make_request())
            outcome = fleet.drain(deadline_s=5.0)
            assert outcome == {"drained": True, "abandoned_flights": 0}
            late = fleet.bind(make_request())
            assert late.status == "error"
            assert late.error["type"] == "ServiceOverloadError"
            assert invariant_holds(fleet)

    def test_health_reflects_draining(self, tmp_path):
        fleet = FleetService(fleet_config(tmp_path)).start()
        assert fleet.health()["ok"]
        fleet.drain(deadline_s=2.0)
        assert not fleet.health()["ok"]

    def test_health_returns_after_a_worker_is_sigkilled(self, tmp_path):
        """Regression: ``drain``/``close`` SIGKILL workers, and a worker
        killed while holding a locked heartbeat cell left every later
        read of it in the parent (``health()``, the liveness monitor)
        blocked forever.  The cell has no lock to hold; reads after a
        kill return within a bound."""
        fleet = FleetService(fleet_config(tmp_path, shards=1)).start()
        try:
            handle = fleet.supervisor.handles[0]
            assert not hasattr(handle.heartbeat, "get_lock")
            fleet.bind(make_request())
            handle.process.kill()
            handle.process.join(timeout=5.0)
            outcome = {}

            def read():
                outcome["health"] = fleet.health()
                outcome["age"] = handle.heartbeat_age()

            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            reader.join(timeout=5.0)
            assert not reader.is_alive(), "a heartbeat read blocked"
            assert isinstance(outcome["health"], dict)
            assert outcome["age"] is not None and outcome["age"] >= 0.0
        finally:
            fleet.stop(drain=False)


class TestAccountingInvariantProperty:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        clients=st.integers(min_value=1, max_value=4),
        requests=st.integers(min_value=1, max_value=10),
        kill_seed=st.integers(min_value=0, max_value=1000),
        kill_rate=st.sampled_from([0.0, 0.4]),
        queue_depth=st.integers(min_value=1, max_value=4),
    )
    def test_invariant_under_crashes_and_rejection(
        self, tmp_path_factory, clients, requests, kill_seed, kill_rate,
        queue_depth,
    ):
        """The shared accounting property, plus mid-flight worker
        crashes — every submission lands in exactly one bucket no matter
        how the fleet fails."""
        tmp_path = tmp_path_factory.mktemp("fleet-prop")
        chaos = (
            ChaosPlan(seed=kill_seed, kill_rate=kill_rate, kill_delay_s=0.0)
            if kill_rate > 0
            else None
        )

        def make(**overrides):
            return FleetService(fleet_config(tmp_path, **overrides)).start()

        check_accounting_under_load(
            make,
            clients,
            requests,
            queue_depth,
            chaos=chaos,
            backoff_base_s=0.005,
            max_retries=4,
            attempt_timeout_s=10.0,
        )
