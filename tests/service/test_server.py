"""PlanService: the shared front-end contract, plus what only a service
with a parked queue has — tickets, shed-oldest, coalescing switched off.

The contract bodies (coalescing, admission control, deadlines, the
accounting property) live in ``tests/service/contract.py`` and run here
on ``PlanService(workers=2)``; ``test_fleet.py`` runs the same bodies on
``FleetService(shards=1)``.
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
from repro.plancache import PlanCache
from repro.service import (
    BindRequest,
    PlanService,
    ServiceConfig,
    service_self_check,
)

from tests.service.conftest import SCALE, SPEC, direct_digests, make_request
from tests.service.contract import (
    AdmissionContract,
    CoalescingContract,
    DeadlinesContract,
    OnPlanService,
    check_accounting_under_load,
    distinct_spec,
    invariant_holds,
    stall_binds,
)

pytestmark = pytest.mark.service


class TestCoalescing(CoalescingContract, OnPlanService):
    def test_coalescing_can_be_disabled(self):
        with PlanService(
            ServiceConfig(workers=2, queue_depth=32, coalesce=False),
            cache=None,
        ) as service:
            release = stall_binds(service)
            threads = [
                threading.Thread(
                    target=service.bind, args=(make_request(),)
                )
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for _ in range(200):
                if service.stats()["counters"].get("accepted", 0) == 4:
                    break
                threading.Event().wait(0.01)
            release.set()
            for t in threads:
                t.join()
            counters = service.stats()["counters"]
            assert counters["accepted"] == 4
            assert counters.get("coalesced", 0) == 0
            assert counters["binds_executed"] == 4


class TestTickets:
    """``submit``/``wait``: the admission outcomes the contract reads off
    ``bind`` responses, raised as the typed errors they wrap."""

    def test_distinct_specs_are_distinct_flights(self, service):
        release = stall_binds(service)
        tickets = [
            service.submit(make_request(distinct_spec(0))),
            service.submit(make_request(distinct_spec(1))),
        ]
        assert tickets[0].flight is not tickets[1].flight
        release.set()
        assert all(service.wait(t).status == "ok" for t in tickets)

    def test_full_queue_raises_typed_overload(self):
        service = PlanService(
            ServiceConfig(
                workers=1,
                queue_depth=1,
                overload="block",
                admission_timeout_s=0.05,
            ),
            cache=None,
        ).start()
        release = stall_binds(service)
        try:
            running = service.submit(make_request(distinct_spec(0)))
            for _ in range(200):
                if service.stats()["queue_len"] == 0:
                    break
                threading.Event().wait(0.01)
            queued = service.submit(make_request(distinct_spec(1)))
            with pytest.raises(
                ServiceOverloadError, match="blocked longer"
            ) as excinfo:
                service.submit(make_request(distinct_spec(2)))
            assert not excinfo.value.shed
            release.set()
            assert service.wait(running).status == "ok"
            assert service.wait(queued).status == "ok"
            assert invariant_holds(service)
        finally:
            release.set()
            service.stop()

    def test_submit_without_start_raises(self):
        service = PlanService(ServiceConfig(workers=1), cache=None)
        with pytest.raises(ServiceOverloadError, match="not running"):
            service.submit(make_request())


class TestBitIdentity:
    def test_response_digests_match_direct_bind(self, service):
        for index in range(3):
            spec = distinct_spec(index)
            response = service.bind(make_request(spec))
            assert response.status == "ok"
            assert response.fingerprints == direct_digests(spec)

    def test_verify_and_num_steps_are_part_of_the_flight_key(self, service):
        release = stall_binds(service)
        tickets = [
            service.submit(make_request(verify=True)),
            service.submit(make_request(verify=False)),
            service.submit(make_request(num_steps=3)),
        ]
        assert service.stats()["counters"].get("coalesced", 0) == 0
        release.set()
        for ticket in tickets:
            assert service.wait(ticket).status == "ok"

    def test_bind_result_returns_live_arrays(self, service):
        result = service.bind_result(make_request())
        from repro.service import result_digests

        assert result_digests(result) == direct_digests()


class TestAdmissionControl(AdmissionContract, OnPlanService):
    def overloaded_service(self, overload, queue_depth=2):
        service = PlanService(
            ServiceConfig(
                workers=1, queue_depth=queue_depth, overload=overload
            ),
            cache=None,
        ).start()
        release = stall_binds(service)
        # One flight running (dequeued), queue_depth more parked in queue.
        running = service.submit(make_request(distinct_spec(0)))
        for _ in range(200):
            if service.stats()["queue_len"] == 0:
                break
            threading.Event().wait(0.01)
        queued = [
            service.submit(make_request(distinct_spec(i + 1)))
            for i in range(queue_depth)
        ]
        return service, release, [running] + queued

    def test_shed_oldest_reclassifies_the_victim(self):
        service, release, tickets = self.overloaded_service("shed-oldest")
        try:
            newest = service.submit(make_request(distinct_spec(9)))
            release.set()
            responses = [service.wait(t) for t in tickets]
            # The oldest *queued* flight was shed; the running one and
            # the newcomer completed.
            shed = [r for r in responses if r.status == "error"]
            assert len(shed) == 1
            assert shed[0].error["type"] == "ServiceOverloadError"
            assert shed[0].error["shed"] is True
            assert service.wait(newest).status == "ok"
            counters = service.stats()["counters"]
            assert counters["shed"] == 1
            assert invariant_holds(service)
        finally:
            release.set()
            service.stop()


class TestDeadlines(DeadlinesContract, OnPlanService):
    def test_unknown_deadline_policy_rejected_at_request_build(self):
        with pytest.raises(ValidationError):
            BindRequest(spec=dict(SPEC), dataset="mol1", on_deadline="panic")

    def test_deadline_error_type_is_catchable_as_timeout(self):
        assert issubclass(DeadlineExceededError, TimeoutError)


class TestPlanCacheIntegration:
    def test_second_round_hits_the_cache(self):
        cache = PlanCache(use_disk=False)
        with PlanService(
            ServiceConfig(workers=2, queue_depth=16), cache=cache
        ) as service:
            cold = service.bind(make_request())
            warm = service.bind(make_request())
        assert cold.cache == "stored"
        assert warm.cache == "hit"
        assert cold.fingerprints == warm.fingerprints

    def test_cacheless_service_reports_no_provenance(self, service):
        assert service.bind(make_request()).cache is None


class TestStatsAndSelfCheck:
    def test_stats_shape(self, service):
        service.bind(make_request())
        stats = service.stats()
        assert stats["accounting_ok"] is True
        assert stats["config"]["workers"] == 2
        assert stats["queue_len"] == 0
        assert stats["inflight"] == 0
        assert stats["histograms"]["total_ms"]["count"] == 1
        assert "p95_ms" in stats["histograms"]["total_ms"]

    def test_describe_mentions_the_invariant(self, service):
        service.bind(make_request())
        assert "service stats:" in service.describe()

    def test_self_check_passes(self):
        check = service_self_check(scale=SCALE)
        assert check["ok"] is True
        assert check["accounting_ok"] is True
        assert check["bit_identical"] is True
        assert check["coalesced"] > 0

    def test_stop_drains_queued_work(self):
        service = PlanService(
            ServiceConfig(workers=1, queue_depth=8), cache=None
        ).start()
        tickets = [
            service.submit(make_request(distinct_spec(i))) for i in range(3)
        ]
        service.stop(drain=True)
        for ticket in tickets:
            assert service.wait(ticket).status == "ok"

    def test_stopped_service_rejects_new_work(self):
        service = PlanService(ServiceConfig(workers=1), cache=None).start()
        service.stop()
        with pytest.raises(ServiceOverloadError):
            service.submit(make_request())


class TestAccountingInvariantProperty(OnPlanService):
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            # The factory hands every example a fresh service.
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        clients=st.integers(min_value=1, max_value=4),
        requests=st.integers(min_value=1, max_value=10),
        queue_depth=st.integers(min_value=1, max_value=4),
    )
    def test_invariant_under_concurrency_and_rejection(
        self, service_factory, clients, requests, queue_depth
    ):
        check_accounting_under_load(
            service_factory, clients, requests, queue_depth
        )
