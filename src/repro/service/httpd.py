"""Localhost HTTP front end over the bind service (stdlib only).

A thin :mod:`http.server` layer — no framework, no dependency — exposing

* ``POST /bind``    one :class:`~repro.service.request.BindRequest` JSON
  body -> one :class:`~repro.service.request.BindResponse` body (status
  code per :data:`~repro.service.protocol.HTTP_STATUS_BY_ERROR`);
* ``GET  /stats``   the service's telemetry snapshot (counters,
  histograms, queue depth, accounting invariant);
* ``GET  /healthz`` liveness (``{"ok": true, "draining": false, ...}``;
  503 once the service is draining or stopped).

The server is a ``ThreadingHTTPServer``: each connection gets a handler
thread that calls ``service.bind`` — so HTTP concurrency maps directly
onto the service's admission control and coalescing (N identical
concurrent POSTs still cost one inspector run).

Intended for localhost use (benchmarks, smoke tests, sidecar serving);
bind to a public interface at your own risk — there is no auth layer.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.errors import ReproError, ValidationError
from repro.service.protocol import (
    decode_request,
    error_response,
    http_status_for,
)
from repro.service.request import BindResponse
from repro.service.core import ServiceCore

#: Default localhost endpoint for ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8177

#: Largest accepted request body (a plan spec is tiny; 1 MiB is generous).
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    #: Quiet by default; the service's telemetry is the observability
    #: surface, not per-connection access logs.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def service(self) -> ServiceCore:
        return self.server.service  # type: ignore[attr-defined]

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_response(self, response: BindResponse) -> None:
        self._reply(http_status_for(response), response.to_dict())

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            health = self.service.health()
            self._reply(200 if health["ok"] else 503, health)
        elif self.path == "/stats":
            self._reply(200, self.service.stats())
        else:
            self._reply(404, {"error": {"type": "NotFound",
                                        "message": self.path}})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/bind":
            self._reply(404, {"error": {"type": "NotFound",
                                        "message": self.path}})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # A negative length would reach ``rfile.read(-1)`` and pin
            # this handler thread until the client hangs up.
            self._reply_response(
                error_response(
                    ValidationError(
                        "Content-Length must be a non-negative integer, got "
                        f"{self.headers.get('Content-Length')!r}",
                        stage="service",
                    )
                )
            )
            return
        if length > MAX_BODY_BYTES:
            self._reply(413, {"error": {"type": "ValidationError",
                                        "message": "request body too large"}})
            return
        body = self.rfile.read(length).decode("utf-8", errors="replace")
        try:
            request = decode_request(body)
        except ReproError as exc:
            self._reply_response(error_response(exc))
            return
        self._reply_response(self.service.bind(request))


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one bind service (either one:
    both are a :class:`~repro.service.core.ServiceCore`)."""

    daemon_threads = True
    #: The socketserver default backlog (5) drops simultaneous connects
    #: under bursty load — clients see connection resets before the
    #: service's admission control ever gets a say.  Deep enough for the
    #: smoke gate's 50-way burst with headroom.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], service: ServiceCore):
        super().__init__(address, _Handler)
        self.service = service


def serve_http(
    service: ServiceCore,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    background: bool = False,
) -> ServiceHTTPServer:
    """Serve the bind service over HTTP.

    ``port=0`` binds an ephemeral port (tests read it back from
    ``server.server_address``).  With ``background`` the accept loop runs
    on a daemon thread and the server is returned immediately; otherwise
    this blocks until ``shutdown()``/KeyboardInterrupt.
    """
    server = ServiceHTTPServer((host, port), service)
    if background:
        thread = threading.Thread(
            target=server.serve_forever, name="repro-service-http", daemon=True
        )
        thread.start()
        return server
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return server


def endpoint(server: ServiceHTTPServer) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "MAX_BODY_BYTES",
    "ServiceHTTPServer",
    "endpoint",
    "serve_http",
]
