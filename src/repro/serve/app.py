"""HTTP front end for :class:`~repro.serve.service.ServeService`.

:func:`wsgi_app` is a dependency-free WSGI application served by the
stdlib's threaded ``wsgiref`` server (:func:`make_server`).  It works
everywhere the simulator works, keeps the package's zero-dependency
contract, and is what the test suite and the ``serve-smoke`` CI job drive
over real sockets.

The adapter is thin on purpose: it parses the request envelope (path, query
string, JSON body, capped at :data:`MAX_BODY_BYTES`) and serialises the
service's ``(status, payload)`` answer — every behaviour worth testing lives
in :mod:`repro.serve.service`.
"""

from __future__ import annotations

import json
import socketserver
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple
from urllib.parse import parse_qsl
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer
from wsgiref.simple_server import make_server as _wsgiref_make_server

from .service import ServeService

#: HTTP reason phrases for the statuses the service emits.
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Content Too Large",
    500: "Internal Server Error",
}

#: Largest request body the server reads (1 MiB; the largest committed sweep
#: spec is under 1 KiB).  A bigger ``Content-Length`` is answered with 413
#: before any of the body is read.
MAX_BODY_BYTES = 1 << 20

WsgiApp = Callable[[Dict[str, Any], Callable], Iterable[bytes]]


def wsgi_app(service: ServeService) -> WsgiApp:
    """Wrap a service as a WSGI application (stdlib-only)."""

    def app(environ: Dict[str, Any], start_response: Callable) -> List[bytes]:
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO", "/")
        query = dict(parse_qsl(environ.get("QUERY_STRING", "")))
        body: Optional[Dict[str, Any]] = None
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        if length > MAX_BODY_BYTES:
            return _respond(
                start_response,
                413,
                {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"},
            )
        if length > 0:
            raw = environ["wsgi.input"].read(length)
            try:
                body = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError):
                return _respond(
                    start_response, 400, {"error": "request body is not valid JSON"}
                )
        status, payload = service.handle(method, path, query, body)
        return _respond(start_response, status, payload)

    return app


def _respond(
    start_response: Callable, status: int, payload: Dict[str, Any]
) -> List[bytes]:
    """Serialise one JSON response through the WSGI callback."""
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    start_response(
        f"{status} {_REASONS.get(status, 'Unknown')}",
        [
            ("Content-Type", "application/json"),
            ("Content-Length", str(len(data))),
        ],
    )
    return [data]


class _ThreadingWSGIServer(socketserver.ThreadingMixIn, WSGIServer):
    """The stdlib WSGI server, one thread per request.

    Request handling is cheap (job submission and index reads); the heavy
    lifting runs on the service's bounded job pool, so per-request threads
    cannot oversubscribe the machine.
    """

    daemon_threads = True


class _QuietHandler(WSGIRequestHandler):
    """Request handler that logs one concise line per request."""

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        print(f"[serve] {self.address_string()} {format % args}", flush=True)


def make_server(
    service: ServeService, host: str, port: int, *, quiet: bool = False
):
    """A threaded stdlib HTTP server bound to ``host:port`` (0 = ephemeral)."""
    handler = _SilentHandler if quiet else _QuietHandler
    return _wsgiref_make_server(
        host,
        port,
        wsgi_app(service),
        server_class=_ThreadingWSGIServer,
        handler_class=handler,
    )


class _SilentHandler(WSGIRequestHandler):
    """Request handler for tests: no per-request log lines."""

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass


def serve_forever(service: ServeService, *, quiet: bool = False) -> Tuple[str, int]:
    """Run the stdlib server until interrupted; returns only on shutdown."""
    httpd = make_server(
        service, service.config.host, service.config.port, quiet=quiet
    )
    host, port = httpd.server_address[0], httpd.server_port
    print(
        f"repro serve on http://{host}:{port}  "
        f"({service.config.workers} workers, results in {service.repository.root})"
    )
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        httpd.server_close()
        service.close()
    return host, port
