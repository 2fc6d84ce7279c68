"""The live telemetry plane: a dependency-free stdlib HTTP server.

:class:`TelemetryServer` wraps :class:`http.server.ThreadingHTTPServer`
around whatever observability surfaces the caller wires in — all of
them optional, all of them plain callables, so the server knows nothing
about the serve daemon (or any other host):

- ``GET /metrics`` — the Prometheus text exposition of a
  :class:`~repro.obs.registry.Registry` (scrape this);
- ``GET /healthz`` — a JSON liveness document; HTTP 200 when the
  payload says ``healthy``, 503 otherwise, so load balancers and
  ``curl -f`` work without parsing the body;
- ``GET /status`` — a JSON progress snapshot (the serve daemon wires
  its mid-run :class:`ServeReport` view here);
- ``GET /debug/trace?n=K`` — the last ``K`` ring-buffered decision
  events of a :class:`~repro.obs.trace.DecisionTrace` (tracing is a
  debug knob: when no trace is wired the endpoint answers with an
  empty list and a note rather than 404, so probes stay simple);
- ``GET /debug/profile`` — a live :class:`~repro.profiling.Profiler`
  snapshot (per-phase cumulative/self wall time plus rolling
  per-window rates; the serve daemon wires
  :meth:`SchedulerService.profile_snapshot` here).  Like tracing,
  an unwired profiler answers with empty phases and a note.

The server runs entirely in daemon threads: :meth:`start` binds and
returns the address (bind to port ``0`` for an ephemeral port — the
race-free pattern for tests and for ``repro serve --listen``), the host
process never blocks on it, and :meth:`stop` tears it down.  Handlers
only *read* from the wired callables; anything they raise is converted
to a 500 with the error text, never propagated into the host.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING
from urllib.parse import parse_qs, urlparse

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import Registry
    from repro.obs.trace import DecisionTrace

__all__ = ["TelemetryServer"]

#: /metrics content type per the Prometheus text exposition spec
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_DEFAULT_TRACE_EVENTS = 100


class TelemetryServer:
    """Serve ``/metrics``, ``/healthz``, ``/status`` and ``/debug/trace``
    for a running process.

    Every surface is optional: a missing ``registry`` renders an empty
    exposition, missing ``health_fn``/``status_fn`` answer 404, a
    missing ``trace`` or ``profile_fn`` yields an empty payload with a
    note.  ``health_fn`` must return a dict with a boolean
    ``"healthy"`` key; ``status_fn`` and ``profile_fn`` any
    JSON-serializable dict.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        registry: Optional["Registry"] = None,
        health_fn: Optional[Callable[[], Dict[str, object]]] = None,
        status_fn: Optional[Callable[[], Dict[str, object]]] = None,
        trace: Optional["DecisionTrace"] = None,
        profile_fn: Optional[Callable[[], Dict[str, object]]] = None,
    ) -> None:
        self._host = host
        self._port = port
        self.registry = registry
        self.health_fn = health_fn
        self.status_fn = status_fn
        self.trace = trace
        self.profile_fn = profile_fn
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — with port 0, the real ephemeral
        port the OS assigned.  Only valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("telemetry server is not running")
        return self._server.server_address[:2]

    def start(self) -> Tuple[str, int]:
        """Bind and serve from a daemon thread; returns the address."""
        if self._server is not None:
            raise RuntimeError("telemetry server already started")
        handler = _make_handler(self)
        self._server = ThreadingHTTPServer((self._host, self._port), handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        """Shut down and unbind; idempotent."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "TelemetryServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- endpoint payloads (shared with the handler) -----------------------------
    def render_metrics(self) -> str:
        if self.registry is None:
            return ""
        return self.registry.render()

    def trace_events(self, n: int) -> Dict[str, object]:
        trace = self.trace
        if trace is None:
            return {
                "events": [],
                "note": "decision tracing is not enabled on this run",
            }
        events = trace.events()
        return {
            "events": events[-n:] if n >= 0 else events,
            "emitted": trace.emitted,
            "buffered": len(events),
            "dropped": trace.dropped,
        }

    def profile_payload(self) -> Dict[str, object]:
        if self.profile_fn is None:
            return {
                "enabled": False,
                "phases": {},
                "note": "live profiling is not enabled on this run",
            }
        return self.profile_fn()


def _make_handler(server: TelemetryServer):
    class Handler(BaseHTTPRequestHandler):
        # one telemetry server per handler class: routing closes over it
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            try:
                self._route()
            except BrokenPipeError:  # pragma: no cover - client went away
                pass
            except Exception as exc:  # noqa: BLE001 - never kill the host
                self._send(
                    500,
                    "application/json",
                    json.dumps({"error": str(exc)}).encode("utf-8"),
                )

        def _route(self) -> None:
            parsed = urlparse(self.path)
            route = parsed.path.rstrip("/") or "/"
            if route == "/metrics":
                body = server.render_metrics().encode("utf-8")
                self._send(200, _METRICS_CONTENT_TYPE, body)
            elif route == "/healthz":
                if server.health_fn is None:
                    self._not_found()
                    return
                payload = server.health_fn()
                code = 200 if payload.get("healthy") else 503
                self._send_json(code, payload)
            elif route == "/status":
                if server.status_fn is None:
                    self._not_found()
                    return
                self._send_json(200, server.status_fn())
            elif route == "/debug/trace":
                query = parse_qs(parsed.query)
                try:
                    n = int(query.get("n", [_DEFAULT_TRACE_EVENTS])[0])
                except ValueError:
                    self._send_json(
                        400, {"error": "query parameter n must be an integer"}
                    )
                    return
                self._send_json(200, server.trace_events(n))
            elif route == "/debug/profile":
                self._send_json(200, server.profile_payload())
            elif route == "/":
                self._send_json(
                    200,
                    {
                        "endpoints": [
                            "/metrics",
                            "/healthz",
                            "/status",
                            "/debug/trace?n=K",
                            "/debug/profile",
                        ]
                    },
                )
            else:
                self._not_found()

        def _not_found(self) -> None:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

        def _send_json(self, code: int, payload: Dict[str, object]) -> None:
            self._send(
                code,
                "application/json",
                json.dumps(payload).encode("utf-8"),
            )

        def _send(self, code: int, content_type: str, body: bytes) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args) -> None:  # noqa: D102 - silence stderr
            pass

    return Handler
