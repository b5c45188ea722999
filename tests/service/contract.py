"""The front-end contract, written once and run against both services.

``PlanService`` and ``FleetService`` share one front end
(``repro.service.core.ServiceCore``), so what that front end promises —
single-flight coalescing, admission control, deadlines, staleness
tolerance, the accounting identity — is asserted by one set of test
bodies.  A concrete test class is a contract mixin plus the mixin that
says which service it runs on::

    class TestCoalescing(CoalescingContract, OnPlanService): ...
    class TestFleetCoalescing(CoalescingContract, OnFleetService): ...

Every test drives ``service.bind`` from client threads (the one entry
point both services have); what only one side supports — tickets and
shed-oldest, worker kills, pinned reads — stays in that side's module.

Overload shapes are made deterministic by stalling the bind stage on an
event (the flight parks inside ``_bind_flight``), filling the service
with *distinct* specs (identical ones would coalesce instead of
queueing), and only then releasing the stall.
"""

import threading

import pytest

from repro.service import (
    FleetConfig,
    FleetService,
    PlanService,
    ServiceConfig,
)

from tests.service.conftest import SPEC, direct_digests, make_request


def distinct_spec(index):
    spec = dict(SPEC)
    spec["steps"] = [
        {"type": "cpack"},
        {"type": "fst", "seed_block_size": 16 * (index + 1)},
    ]
    return spec


def stall_binds(service):
    """Park every bind on an event; returns the release event."""
    release = threading.Event()
    original = service._bind_flight

    def stalled(flight):
        release.wait()
        return original(flight)

    service._bind_flight = stalled
    return release


def invariant_holds(service):
    counters = service.stats()["counters"]
    return counters.get("submitted", 0) == (
        counters.get("accepted", 0)
        + counters.get("coalesced", 0)
        + counters.get("rejected", 0)
        + counters.get("shed", 0)
    )


def wait_until(condition, timeout_s=10.0):
    """Poll ``condition`` until it holds; False if it never did."""
    tick = threading.Event()
    for _ in range(int(timeout_s / 0.01)):
        if condition():
            return True
        tick.wait(0.01)
    return condition()


class Clients:
    """Closed-loop client threads; ``responses`` in submission order."""

    def __init__(self, service):
        self.service = service
        self.threads = []
        self.responses = []

    def bind(self, request):
        slot = len(self.responses)
        self.responses.append(None)

        def run():
            self.responses[slot] = self.service.bind(request)

        thread = threading.Thread(target=run)
        thread.start()
        self.threads.append(thread)

    def join(self):
        for thread in self.threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in self.threads)
        return self.responses


def saturate(service):
    """Stall binds and admit distinct flights until the next one would
    overflow; returns ``(release, clients)``.

    ``queue_depth`` bounds the flights a ``PlanService`` has *parked* —
    its worker threads each hold one more — and the flights a fleet has
    *running*, so the two fill up after a different number of binds.
    """
    release = stall_binds(service)
    config = service.config
    workers = getattr(config, "workers", 0)
    clients = Clients(service)
    # One at a time: a flight admitted before the previous one settled
    # could find the queue full while a worker was still about to take.
    for admitted in range(1, config.queue_depth + workers + 1):
        clients.bind(make_request(distinct_spec(admitted - 1)))

        def settled():
            stats = service.stats()
            return (
                stats["inflight"] == admitted
                and stats["queue_len"] == max(0, admitted - workers)
            )

        assert wait_until(settled), service.stats()
    return release, clients


class OnPlanService:
    """Run a contract on ``PlanService(workers=2)``."""

    @pytest.fixture
    def service_factory(self):
        made = []

        def make(start=True, **overrides):
            overrides.setdefault("workers", 2)
            overrides.setdefault("queue_depth", 16)
            service = PlanService(ServiceConfig(**overrides), cache=None)
            made.append(service)
            return service.start() if start else service

        yield make
        for service in made:
            service.stop()


class OnFleetService:
    """Run a contract on ``FleetService(shards=1)``."""

    @pytest.fixture
    def service_factory(self, tmp_path_factory):
        made = []

        def make(start=True, **overrides):
            overrides.setdefault("shards", 1)
            overrides.setdefault("queue_depth", 16)
            overrides.setdefault(
                "cache_dir", str(tmp_path_factory.mktemp("fleet-cache"))
            )
            service = FleetService(FleetConfig(**overrides))
            made.append(service)
            return service.start() if start else service

        yield make
        for service in made:
            service.stop()


class CoalescingContract:
    def test_identical_concurrent_requests_cost_one_bind(self, service_factory):
        service = service_factory()
        release = stall_binds(service)
        try:
            clients = Clients(service)
            for _ in range(8):
                clients.bind(make_request())
            # Wait until every request has attached to the stalled flight.
            wait_until(
                lambda: service.stats()["counters"].get("coalesced", 0) == 7
            )
        finally:
            release.set()
        responses = clients.join()

        counters = service.stats()["counters"]
        assert counters["binds_executed"] == 1
        assert counters["accepted"] == 1
        assert counters["coalesced"] == 7
        assert invariant_holds(service)
        expected = direct_digests()
        leads = [r for r in responses if not r.coalesced]
        assert len(leads) == 1
        for r in responses:
            assert r.status == "ok"
            assert r.fingerprints == expected

    def test_distinct_specs_do_not_coalesce(self, service_factory):
        service = service_factory()
        release = stall_binds(service)
        try:
            clients = Clients(service)
            clients.bind(make_request(distinct_spec(0)))
            clients.bind(make_request(distinct_spec(1)))
            # Two concurrent but *distinct* specs: two flights, no sharing.
            assert wait_until(
                lambda: service.stats()["counters"].get("accepted", 0) == 2
            )
            assert service.stats()["counters"].get("coalesced", 0) == 0
        finally:
            release.set()
        assert all(r.status == "ok" for r in clients.join())
        assert service.stats()["counters"]["binds_executed"] == 2

    def test_sequential_identical_requests_rebind(self, service_factory):
        service = service_factory()
        first = service.bind(make_request())
        second = service.bind(make_request())
        # No flight in progress the second time: nothing to coalesce.
        assert not first.coalesced and not second.coalesced
        assert first.fingerprints == second.fingerprints
        assert service.stats()["counters"]["binds_executed"] == 2


class AdmissionContract:
    def test_reject_policy_raises_typed_overload(self, service_factory):
        service = service_factory(queue_depth=2, overload="reject")
        release, clients = saturate(service)
        try:
            for index in (8, 9):
                response = service.bind(make_request(distinct_spec(index)))
                assert response.status == "error"
                assert response.error["type"] == "ServiceOverloadError"
                assert not response.error["shed"]
        finally:
            release.set()
        assert all(r.status == "ok" for r in clients.join())
        assert service.stats()["counters"]["rejected"] == 2
        assert invariant_holds(service)

    def test_block_policy_times_out_with_typed_error(self, service_factory):
        service = service_factory(
            queue_depth=1, overload="block", admission_timeout_s=0.05
        )
        release, clients = saturate(service)
        try:
            response = service.bind(make_request(distinct_spec(9)))
            assert response.status == "error"
            assert response.error["type"] == "ServiceOverloadError"
            assert "blocked longer" in response.error["message"]
        finally:
            release.set()
        assert all(r.status == "ok" for r in clients.join())
        assert invariant_holds(service)

    def test_block_policy_admits_once_capacity_frees(self, service_factory):
        service = service_factory(queue_depth=1, overload="block")
        responses = [
            service.bind(make_request(distinct_spec(i))) for i in range(4)
        ]
        assert all(r.status == "ok" for r in responses)
        assert invariant_holds(service)

    def test_malformed_spec_counts_as_rejected(self, service_factory):
        service = service_factory()
        response = service.bind(
            make_request({"kernel": "no-such-kernel", "steps": ["cpack"]})
        )
        assert response.status == "error"
        assert response.error["type"] == "BindError"
        assert service.stats()["counters"]["rejected"] == 1
        assert invariant_holds(service)

    def test_unknown_dataset_is_typed(self, service_factory):
        service = service_factory()
        response = service.bind(make_request(dataset="no-such-dataset"))
        assert response.status == "error"
        assert invariant_holds(service)

    def test_submit_without_start_is_overload(self, service_factory):
        service = service_factory(start=False)
        response = service.bind(make_request())
        assert response.status == "error"
        assert response.error["type"] == "ServiceOverloadError"
        assert "not running" in response.error["message"]


class DeadlinesContract:
    def test_zero_deadline_raise_policy_is_deterministic(self, service_factory):
        response = service_factory().bind(
            make_request(deadline_s=0.0, on_deadline="raise")
        )
        assert response.status == "error"
        assert response.error["type"] == "DeadlineExceededError"

    def test_zero_deadline_degrade_serves_late_and_marks(self, service_factory):
        response = service_factory().bind(
            make_request(deadline_s=0.0, on_deadline="degrade")
        )
        assert response.status == "ok"
        assert response.deadline_missed is True
        assert response.fingerprints == direct_digests()

    def test_generous_deadline_is_met(self, service_factory):
        response = service_factory().bind(
            make_request(deadline_s=60.0, on_deadline="raise")
        )
        assert response.status == "ok"
        assert response.deadline_missed is False


class StalenessContract:
    """A request ahead of the published epoch: served stale within its
    tolerance, rejected past it (nothing is ever published here)."""

    def test_stale_within_tolerance_served_and_counted(self, service_factory):
        service = service_factory()
        response = service.bind(make_request(epoch=1, max_staleness=1))
        assert response.status == "ok", response.error
        assert response.stale is True and response.epoch == 0
        # Stale answers are exact, just old.
        assert response.fingerprints == direct_digests()
        assert service.stats()["counters"].get("stale_served", 0) == 1

    def test_past_tolerance_rejected(self, service_factory):
        service = service_factory()
        response = service.bind(make_request(epoch=3, max_staleness=1))
        assert response.status == "error"
        assert "max_staleness" in response.error["message"]
        assert service.stats()["counters"].get("rejected", 0) == 1
        assert service.stats()["accounting_ok"]


def check_accounting_under_load(
    service_factory, clients, requests, queue_depth, **overrides
):
    """accepted + coalesced + rejected + shed == submitted, under
    concurrent writers and a reject admission policy — every submission
    lands in exactly one bucket, and every one resolves."""
    service = service_factory(
        queue_depth=queue_depth, overload="reject", **overrides
    )
    try:
        workload = [make_request(distinct_spec(i % 3)) for i in range(requests)]
        threads = []
        for i in range(clients):

            def run(chunk=workload[i::clients]):
                for request in chunk:
                    service.bind(request)

            threads.append(threading.Thread(target=run))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counters = service.stats()["counters"]
        assert counters["submitted"] == requests
        assert invariant_holds(service)
        # Every submission also resolved: completed + failed covers the
        # admitted + coalesced + rejected population.
        resolved = counters.get("completed", 0) + counters.get("failed", 0)
        assert resolved == requests
    finally:
        service.stop()
