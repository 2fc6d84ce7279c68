"""The live telemetry plane (repro.obs.http).

Every test binds to port 0 — the OS hands out an ephemeral port and
:meth:`TelemetryServer.start` reports it, so tests never race over a
fixed port.  Requests go through urllib against the real socket: these
are end-to-end checks of routing, status codes, content types and
payload shapes, not handler unit tests.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    DecisionTrace,
    Registry,
    TelemetryServer,
    parse_exposition,
)


def _url(server):
    host, port = server.address
    return f"http://{host}:{port}"


def _get(url, timeout=5.0):
    """(status code, content-type, body text) — HTTPError included."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.headers.get("Content-Type"), (
                resp.read().decode("utf-8")
            )
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get("Content-Type"), (
            exc.read().decode("utf-8")
        )


@pytest.fixture
def registry():
    reg = Registry()
    reg.counter("demo_total", "a counter", lambda: 7)
    reg.gauge(
        "demo_depth", "a gauge", lambda: {"high": 2.5}, labelnames=("q",)
    )
    return reg


class TestLifecycle:
    def test_ephemeral_port_is_reported(self):
        server = TelemetryServer(port=0)
        host, port = server.start()
        try:
            assert host == "127.0.0.1"
            assert port > 0
            assert _url(server) == f"http://{host}:{port}"
        finally:
            server.stop()

    def test_address_requires_running_server(self):
        server = TelemetryServer(port=0)
        with pytest.raises(RuntimeError, match="not running"):
            server.address
        server.start()
        server.stop()
        with pytest.raises(RuntimeError, match="not running"):
            server.address

    def test_stop_is_idempotent_and_start_rebinds(self):
        server = TelemetryServer(port=0)
        server.start()
        server.stop()
        server.stop()  # no-op
        server.start()  # fresh ephemeral port
        server.stop()

    def test_double_start_rejected(self):
        with TelemetryServer(port=0) as server:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()

    def test_context_manager(self, registry):
        with TelemetryServer(port=0, registry=registry) as server:
            code, _, _ = _get(_url(server) + "/metrics")
            assert code == 200


class TestMetricsEndpoint:
    def test_exposition_parses_back(self, registry):
        with TelemetryServer(port=0, registry=registry) as server:
            code, ctype, body = _get(_url(server) + "/metrics")
        assert code == 200
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        parsed = parse_exposition(body)
        assert parsed["demo_total"] == {"": 7.0}
        assert parsed["demo_depth"] == {"q=high": 2.5}

    def test_no_registry_renders_empty(self):
        with TelemetryServer(port=0) as server:
            code, _, body = _get(_url(server) + "/metrics")
        assert code == 200
        assert body == ""


class TestHealthEndpoint:
    def test_healthy_is_200(self):
        payload = {"healthy": True, "status": "ok"}
        with TelemetryServer(port=0, health_fn=lambda: payload) as server:
            code, ctype, body = _get(_url(server) + "/healthz")
        assert code == 200
        assert ctype == "application/json"
        assert json.loads(body) == payload

    def test_unhealthy_is_503(self):
        payload = {"healthy": False, "status": "stalled"}
        with TelemetryServer(port=0, health_fn=lambda: payload) as server:
            code, _, body = _get(_url(server) + "/healthz")
        assert code == 503
        assert json.loads(body)["status"] == "stalled"

    def test_unwired_health_is_404(self):
        with TelemetryServer(port=0) as server:
            code, _, _ = _get(_url(server) + "/healthz")
        assert code == 404

    def test_health_fn_exception_is_500_not_fatal(self):
        def boom():
            raise RuntimeError("sensor exploded")

        with TelemetryServer(port=0, health_fn=boom) as server:
            code, _, body = _get(_url(server) + "/healthz")
            assert code == 500
            assert "sensor exploded" in json.loads(body)["error"]
            # the server survives the handler failure
            code, _, _ = _get(_url(server) + "/")
            assert code == 200


class TestStatusEndpoint:
    def test_status_payload(self):
        snap = {"phase": "active", "placements": 42}
        with TelemetryServer(port=0, status_fn=lambda: snap) as server:
            code, _, body = _get(_url(server) + "/status")
        assert code == 200
        assert json.loads(body) == snap

    def test_unwired_status_is_404(self):
        with TelemetryServer(port=0) as server:
            code, _, _ = _get(_url(server) + "/status")
        assert code == 404


class TestTraceEndpoint:
    def _trace(self, n=10):
        trace = DecisionTrace(max_events=1000)
        for i in range(n):
            trace.emit(
                "round", time=float(i), machines=4,
                placements=i, queue_depth=0,
            )
        return trace

    def test_last_k_events(self):
        with TelemetryServer(port=0, trace=self._trace(10)) as server:
            code, _, body = _get(_url(server) + "/debug/trace?n=3")
        assert code == 200
        payload = json.loads(body)
        assert [e["time"] for e in payload["events"]] == [7.0, 8.0, 9.0]
        assert payload["emitted"] == 10
        assert payload["buffered"] == 10
        assert payload["dropped"] == 0

    def test_default_window(self):
        with TelemetryServer(port=0, trace=self._trace(5)) as server:
            code, _, body = _get(_url(server) + "/debug/trace")
        assert code == 200
        assert len(json.loads(body)["events"]) == 5

    def test_no_trace_yields_note_not_404(self):
        with TelemetryServer(port=0) as server:
            code, _, body = _get(_url(server) + "/debug/trace")
        assert code == 200
        payload = json.loads(body)
        assert payload["events"] == []
        assert "not enabled" in payload["note"]

    def test_bad_n_is_400(self):
        with TelemetryServer(port=0, trace=self._trace(3)) as server:
            code, _, body = _get(_url(server) + "/debug/trace?n=banana")
        assert code == 400
        assert "integer" in json.loads(body)["error"]


class TestRouting:
    def test_index_lists_endpoints(self):
        with TelemetryServer(port=0) as server:
            code, _, body = _get(_url(server) + "/")
        assert code == 200
        endpoints = json.loads(body)["endpoints"]
        assert "/metrics" in endpoints
        assert "/healthz" in endpoints

    def test_unknown_route_is_404(self):
        with TelemetryServer(port=0) as server:
            code, _, body = _get(_url(server) + "/nope")
        assert code == 404
        assert "/nope" in json.loads(body)["error"]

    def test_trailing_slash_is_tolerated(self, registry):
        with TelemetryServer(port=0, registry=registry) as server:
            code, _, _ = _get(_url(server) + "/metrics/")
        assert code == 200

    def test_concurrent_scrapes(self, registry):
        # ThreadingHTTPServer: parallel requests must all land
        import threading

        results = []
        with TelemetryServer(port=0, registry=registry) as server:
            def scrape():
                results.append(_get(_url(server) + "/metrics")[0])

            threads = [threading.Thread(target=scrape) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        assert results == [200] * 8


class TestProfileEndpoint:
    def test_no_profiler_yields_note_not_404(self):
        with TelemetryServer(port=0) as server:
            code, ctype, body = _get(_url(server) + "/debug/profile")
        assert code == 200
        assert ctype == "application/json"
        payload = json.loads(body)
        assert payload["enabled"] is False
        assert payload["phases"] == {}
        assert "not enabled" in payload["note"]

    def test_wired_profile_fn_payload_passes_through(self):
        snapshot = {
            "enabled": True,
            "phase": "replay",
            "phases": {
                "tetris.schedule": {
                    "count": 3,
                    "total_seconds": 0.006,
                    "self_seconds": 0.006,
                    "mean_ms": 2.0,
                },
            },
        }
        with TelemetryServer(port=0, profile_fn=lambda: snapshot) as server:
            code, _, body = _get(_url(server) + "/debug/profile")
        assert code == 200
        payload = json.loads(body)
        assert payload["enabled"] is True
        assert payload["phases"]["tetris.schedule"]["count"] == 3

    def test_profile_fn_error_is_500_not_crash(self):
        def boom():
            raise ValueError("profiler detached")

        with TelemetryServer(port=0, profile_fn=boom) as server:
            code, _, body = _get(_url(server) + "/debug/profile")
            # the server thread must survive the failed request
            assert _get(_url(server) + "/")[0] == 200
        assert code == 500
        assert "profiler detached" in json.loads(body)["error"]

    def test_index_lists_profile_endpoint(self):
        with TelemetryServer(port=0) as server:
            _, _, body = _get(_url(server) + "/")
        assert "/debug/profile" in json.loads(body)["endpoints"]
