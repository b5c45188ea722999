"""JSON wire protocol: line-delimited requests/responses + error mapping.

The service speaks one JSON object per message on both transports:

* **stdio** — one request per line on stdin, one response per line on
  stdout (:func:`serve_stdio`); ideal for piping and for supervisors
  that manage the process themselves;
* **HTTP** — the same objects as request/response bodies
  (:mod:`repro.service.httpd`).

Every failure is a *typed* error object, never a traceback::

    {"status": "error",
     "error": {"type": "ServiceOverloadError", "message": "...",
               "shed": false, "attempts": 0}}

and the HTTP layer maps the types onto status codes
(:data:`HTTP_STATUS_BY_ERROR`): overload -> 503, deadline -> 504,
malformed -> 400, everything else typed -> 422.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.errors import ReproError, ValidationError
from repro.service.core import ServiceCore
from repro.service.request import BindRequest, BindResponse, error_body

#: Typed-error name -> HTTP status code.
HTTP_STATUS_BY_ERROR = {
    "ValidationError": 400,
    "BindError": 400,
    "ServiceOverloadError": 503,
    "DeadlineExceededError": 504,
    # Fleet resilience errors: the request was well-formed but the
    # service tier could not complete it — retryable, so 503.
    "WorkerCrashError": 503,
    "CircuitOpenError": 503,
    "RetryExhaustedError": 503,
}

#: Fallback status for any other typed pipeline error.
DEFAULT_ERROR_STATUS = 422


def http_status_for(response: BindResponse) -> int:
    """The HTTP status one response maps to."""
    if response.status == "ok":
        return 200
    error_type = (response.error or {}).get("type", "")
    return HTTP_STATUS_BY_ERROR.get(error_type, DEFAULT_ERROR_STATUS)


def decode_request(text: str) -> BindRequest:
    """Parse one JSON message into a typed request."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"request is not valid JSON: {exc}", stage="service"
        ) from None
    return BindRequest.from_dict(payload)


def encode_response(response: BindResponse) -> str:
    """One response as a single JSON line."""
    return json.dumps(response.to_dict(), sort_keys=True)


def error_response(exc: BaseException, request_id: str = "") -> BindResponse:
    """Wrap a typed error as a response object."""
    return BindResponse(
        request_id=request_id,
        status="error",
        error=error_body(exc),
    )


def handle_line(service: ServiceCore, line: str) -> Optional[str]:
    """Serve one stdio line; ``None`` for blank lines."""
    line = line.strip()
    if not line:
        return None
    try:
        request = decode_request(line)
    except ReproError as exc:
        return encode_response(error_response(exc))
    response = service.bind(request)
    return encode_response(response)


def serve_stdio(service: ServiceCore, stdin, stdout) -> int:
    """Closed loop over stdin/stdout until EOF; returns requests served."""
    served = 0
    for line in stdin:
        encoded = handle_line(service, line)
        if encoded is None:
            continue
        stdout.write(encoded + "\n")
        flush = getattr(stdout, "flush", None)
        if flush is not None:
            flush()
        served += 1
    return served


__all__ = [
    "DEFAULT_ERROR_STATUS",
    "HTTP_STATUS_BY_ERROR",
    "decode_request",
    "encode_response",
    "error_response",
    "handle_line",
    "http_status_for",
    "serve_stdio",
]
