"""Graceful shutdown: drain finishes in-flight work, rejects new work.

The stall idiom from ``test_server`` makes the shapes deterministic:
binds park on an event, so "in-flight during drain" is a controlled
state, not a race.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import PlanService, ServiceConfig

from tests.service.conftest import make_request
from tests.service.contract import (
    distinct_spec,
    invariant_holds,
    stall_binds,
)

pytestmark = pytest.mark.service


class TestPlanServiceDrain:
    def test_drain_finishes_inflight_then_rejects(self):
        with PlanService(
            ServiceConfig(workers=1, queue_depth=8), cache=None
        ) as service:
            release = stall_binds(service)
            ticket = service.submit(make_request())
            outcome = {}

            def drainer():
                outcome.update(service.drain(deadline_s=10.0))

            thread = threading.Thread(target=drainer)
            thread.start()
            # Draining: new submissions bounce immediately with a typed
            # rejection, while the stalled flight is still in flight.
            late = service.bind(make_request(spec=distinct_spec(1)))
            assert late.status == "error"
            assert late.error["type"] == "ServiceOverloadError"
            release.set()
            thread.join(timeout=10.0)
            assert outcome == {"drained": True, "abandoned_flights": 0}
            response = service.wait(ticket)
            assert response.status == "ok"
            assert invariant_holds(service)

    def test_drain_deadline_sheds_whats_left(self):
        service = PlanService(
            ServiceConfig(workers=1, queue_depth=8), cache=None
        ).start()
        release = stall_binds(service)
        running = service.submit(make_request())
        queued = service.submit(make_request(spec=distinct_spec(1)))
        # Release the stall *after* the drain deadline has passed, so
        # drain gives up with both flights pending.
        timer = threading.Timer(0.5, release.set)
        timer.start()
        outcome = service.drain(deadline_s=0.05)
        assert outcome["drained"] is False
        assert outcome["abandoned_flights"] >= 1
        # The queued flight was shed with exact accounting; the running
        # one finished once the stall released (stop joins the workers).
        assert service.wait(running).status == "ok"
        assert service.wait(queued).status == "error"
        assert invariant_holds(service)
        timer.cancel()

    def test_drain_idempotent_on_stopped_service(self):
        service = PlanService(ServiceConfig(workers=1), cache=None)
        assert service.drain(deadline_s=1.0) == {
            "drained": True,
            "abandoned_flights": 0,
        }

    def test_drain_flushes_telemetry_sink(self):
        class FlushableSink:
            def __init__(self):
                self.flushed = False

            def __call__(self, line):
                pass

            def flush(self):
                self.flushed = True

        sink = FlushableSink()
        from repro.service import Telemetry

        service = PlanService(
            ServiceConfig(workers=1), cache=None,
            telemetry=Telemetry(sink=sink),
        ).start()
        service.bind(make_request())
        service.drain(deadline_s=5.0)
        assert sink.flushed


class TestHttpHealthWhileDraining:
    def healthz_degrades_to_503(self, service, expect):
        from repro.service.httpd import serve_http

        service.start()
        server = serve_http(service, port=0, background=True)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            health = json.loads(
                urllib.request.urlopen(base + "/healthz").read()
            )
            assert health["ok"] and health["draining"] is False
            assert {key: health[key] for key in expect} == expect
            service.drain(deadline_s=2.0)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/healthz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["draining"] is True
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_healthz_degrades_to_503_when_fleet_drains(self, tmp_path):
        from repro.service import FleetConfig, FleetService

        self.healthz_degrades_to_503(
            FleetService(
                FleetConfig(shards=1, cache_dir=str(tmp_path / "cache"))
            ),
            expect={"shards": 1},
        )

    def test_healthz_degrades_to_503_when_service_drains(self):
        self.healthz_degrades_to_503(
            PlanService(ServiceConfig(workers=1), cache=None), expect={}
        )
