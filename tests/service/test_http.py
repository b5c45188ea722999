"""HTTP front end + the CI service smoke gate.

``test_fifty_mixed_requests_smoke`` is the gate the workflow runs: 50
concurrent mixed requests with heavy duplication through the full HTTP
stack; it requires coalescing to engage, every response to be
bit-identical to a direct ``CompositionPlan.bind()``, and the admission
counters to account for every request.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import PlanService, ServiceConfig
from repro.service.httpd import endpoint, serve_http

from tests.service.conftest import SCALE, SPEC, direct_digests

pytestmark = pytest.mark.service


@pytest.fixture
def server():
    service = PlanService(
        ServiceConfig(workers=2, queue_depth=64), cache=None
    ).start()
    httpd = serve_http(service, port=0, background=True)
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    service.stop()


def post_bind(base, payload):
    request = urllib.request.Request(
        base + "/bind",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=60) as reply:
        return reply.status, json.loads(reply.read())


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = get(endpoint(server), "/healthz")
        assert status == 200
        assert payload == {"ok": True, "draining": False}

    def test_bind_round_trip(self, server):
        status, payload = post_bind(
            endpoint(server),
            {"spec": dict(SPEC), "dataset": "mol1", "scale": SCALE},
        )
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["fingerprints"] == direct_digests()

    def test_malformed_body_is_400(self, server):
        request = urllib.request.Request(
            endpoint(server) + "/bind", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["type"] == (
            "ValidationError"
        )

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, server, length):
        """A non-numeric length used to kill the handler with a
        traceback; a negative one reached ``rfile.read(-1)`` and pinned
        the handler thread until the client hung up."""
        import socket

        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                f"POST /bind HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {length}\r\n\r\n".encode("ascii")
            )
            reply = b""
            while b"\r\n\r\n" not in reply:
                chunk = sock.recv(4096)
                assert chunk, f"connection closed after {reply!r}"
                reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.0 400") or head.startswith(
                b"HTTP/1.1 400"
            )
            size = int(
                [
                    line.split(b":")[1]
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length")
                ][0]
            )
            while len(body) < size:
                body += sock.recv(4096)
        assert json.loads(body)["error"]["type"] == "ValidationError"

    def test_unknown_request_key_is_400(self, server):
        status, payload = post_bind(
            endpoint(server),
            {"spec": dict(SPEC), "dataset": "mol1", "bogus": 1},
        )
        assert status == 400

    def test_deadline_error_is_504(self, server):
        status, payload = post_bind(
            endpoint(server),
            {
                "spec": dict(SPEC),
                "dataset": "mol1",
                "scale": SCALE,
                "deadline_s": 0.0,
                "on_deadline": "raise",
            },
        )
        assert status == 504
        assert payload["error"]["type"] == "DeadlineExceededError"

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(endpoint(server) + "/nope", timeout=60)
        assert excinfo.value.code == 404

    def test_stats_reports_accounting(self, server):
        base = endpoint(server)
        post_bind(base, {"spec": dict(SPEC), "dataset": "mol1", "scale": SCALE})
        status, stats = get(base, "/stats")
        assert status == 200
        assert stats["accounting_ok"] is True
        assert stats["counters"]["submitted"] >= 1


class TestSmokeGate:
    def test_fifty_mixed_requests_smoke(self, server):
        base = endpoint(server)
        specs = [dict(SPEC)]
        alt = dict(SPEC)
        alt["steps"] = [{"type": "cpack"}, {"type": "lexgroup"}]
        specs.append(alt)
        expected = [direct_digests(spec) for spec in specs]

        total = 50
        results = [None] * total

        def client(index):
            spec = specs[index % len(specs)]
            results[index] = post_bind(
                base,
                {"spec": dict(spec), "dataset": "mol1", "scale": SCALE},
            )

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(total)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        coalesced = 0
        for index, (status, payload) in enumerate(results):
            assert status == 200, payload
            assert payload["status"] == "ok"
            # Bit-identity with a direct bind, for every single response.
            assert payload["fingerprints"] == expected[index % len(specs)]
            coalesced += bool(payload["coalesced"])

        # Duplicate-heavy concurrent load must engage single-flight.
        assert coalesced > 0

        _, stats = get(base, "/stats")
        counters = stats["counters"]
        assert stats["accounting_ok"] is True
        assert counters["submitted"] == total
        assert counters["coalesced"] == coalesced
        assert counters["binds_executed"] < total
