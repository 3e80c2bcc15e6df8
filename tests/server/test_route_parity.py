"""Route parity: the gateway and the router answer the mounts they share
through :class:`repro.server.http.HttpServer` identically.

Each case runs against a stub gateway and against a router in front of an
identical stub gateway, with tracing on and (where it matters) off.
"""

import asyncio
import socket

import pytest

from repro.fleet.harness import BackgroundRouter
from repro.fleet.router import FleetRouter, RouterConfig
from repro.server.gateway import GatewayConfig
from repro.server.loadgen import GatewayClient, demo_payloads
from tests.server.test_gateway_e2e import stub_gateway

KINDS = ["gateway", "router"]


@pytest.fixture(scope="module")
def servers():
    """``(kind, tracing) -> harness`` for both kinds, tracing on and off."""
    harnesses = {}
    try:
        for tracing in (True, False):
            gateway, _pool = stub_gateway(
                GatewayConfig(port=0, tracing=tracing)
            )
            harnesses[("gateway", tracing)] = gateway
            harnesses[("router", tracing)] = BackgroundRouter(
                FleetRouter(
                    [(gateway.host, gateway.port)],
                    RouterConfig(port=0, tracing=tracing),
                )
            )
        yield harnesses
    finally:
        # routers first: a gateway stopped under a router's open keep-alive
        # connection would leave that connection's handler behind
        for harness in reversed(list(harnesses.values())):
            harness.stop()


def call(harness, method, path, payload=None, headers=None):
    """One request on a fresh connection: ``(status, body, response headers)``."""

    async def scenario():
        async with GatewayClient(harness.host, harness.port) as client:
            status, body = await client.request(method, path, payload, headers)
            return status, body, client.last_headers

    return asyncio.run(scenario())


@pytest.mark.parametrize("kind", KINDS)
class TestSharedMounts:
    def test_unknown_path_is_404(self, servers, kind):
        status, body, _headers = call(servers[(kind, True)], "GET", "/nope?x=1")
        assert (status, body) == (404, {"error": "no route for GET /nope"})

    def test_wrong_method_on_a_known_path_is_405(self, servers, kind):
        harness = servers[(kind, True)]
        for method, path in (("GET", "/solve"), ("POST", "/healthz")):
            status, body, _headers = call(harness, method, path)
            assert (status, body) == (405, {"error": f"{method} not allowed on {path}"})

    def test_traces_with_tracing_off_are_404(self, servers, kind):
        harness = servers[(kind, False)]
        for path in ("/debug/traces", "/debug/traces/abc"):
            status, body, _headers = call(harness, "GET", path)
            assert status == 404
            assert body == {"error": f"tracing is disabled on this {kind}"}

    def test_non_integer_limit_is_400(self, servers, kind):
        status, body, _headers = call(
            servers[(kind, True)], "GET", "/debug/traces?limit=abc"
        )
        assert (status, body) == (400, {"error": "limit must be an integer"})

    def test_full_flag_ignores_case(self, servers, kind):
        harness = servers[(kind, True)]
        status, _body, _headers = call(harness, "POST", "/solve", demo_payloads(1)[0])
        assert status == 200
        _status, full, _headers = call(harness, "GET", "/debug/traces?full=TRUE&limit=1")
        _status, summary, _headers = call(harness, "GET", "/debug/traces?limit=1")
        assert isinstance(full["traces"][0]["spans"], list)
        assert isinstance(summary["traces"][0]["spans"], int)

    def test_unknown_trace_id_is_404(self, servers, kind):
        status, body, _headers = call(servers[(kind, True)], "GET", "/debug/traces/feed")
        assert status == 404
        assert body == {"error": "no trace 'feed' (evicted or never seen)"}

    def test_dashboard_is_html(self, servers, kind):
        status, page, headers = call(servers[(kind, True)], "GET", "/dashboard")
        assert status == 200
        assert headers["content-type"] == "text/html; charset=utf-8"
        assert b"panel-overview" in page

    def test_malformed_request_line_is_400_and_closes(self, servers, kind):
        harness = servers[(kind, True)]
        with socket.create_connection((harness.host, harness.port), timeout=5) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            received = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:  # the server closed the connection
                    break
                received += chunk
        head = received.split(b"\r\n\r\n", 1)[0]
        assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"Connection: close" in head

    def test_connection_close_is_honoured(self, servers, kind):
        harness = servers[(kind, True)]

        async def scenario():
            async with GatewayClient(harness.host, harness.port) as client:
                status, _body = await client.request(
                    "GET", "/healthz", extra_headers={"Connection": "close"}
                )
                assert status == 200
                assert client.last_headers["connection"] == "close"
                with pytest.raises(ConnectionError):
                    await client.healthz()

        asyncio.run(scenario())

    def test_raising_handler_answers_500(self, servers, kind, monkeypatch):
        harness = servers[(kind, True)]

        def boom():
            raise KeyError("surprise")

        monkeypatch.setattr(harness.server, "health", boom)
        status, body, _headers = call(harness, "GET", "/healthz")
        assert status == 500
        assert body == {"error": "KeyError: 'surprise'"}
