"""The scrape endpoint: /metrics, /healthz, 404s, graceful shutdown."""

import json
import urllib.error
import urllib.request

import pytest

from repro.metrics import MetricsRegistry
from repro.service.http import MetricsServer


def get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, dict(response.headers), response.read()


@pytest.fixture
def registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_test_total", "A counter.").inc(7)
    return registry


class TestEndpoints:
    def test_metrics_scrape(self, registry):
        with MetricsServer(registry) as server:
            status, headers, body = get(f"{server.url}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"repro_test_total 7\n" in body

    def test_scrape_sees_live_updates(self, registry):
        with MetricsServer(registry) as server:
            _, _, before = get(f"{server.url}/metrics")
            registry.get("repro_test_total").inc(3)
            _, _, after = get(f"{server.url}/metrics")
        assert b"repro_test_total 7" in before
        assert b"repro_test_total 10" in after

    def test_healthz(self, registry):
        server = MetricsServer(registry, health=lambda: {"rows_scored": 42})
        with server:
            status, headers, body = get(f"{server.url}/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == {"status": "ok", "rows_scored": 42}

    def test_unknown_path_is_404(self, registry):
        with MetricsServer(registry) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(f"{server.url}/nope")
            assert excinfo.value.code == 404

    def test_ephemeral_port_is_bound(self, registry):
        with MetricsServer(registry) as server:
            assert server.port > 0
            assert str(server.port) in server.url


class TestLifecycle:
    def test_stop_refuses_further_connections(self, registry):
        server = MetricsServer(registry).start()
        url = server.url
        get(f"{url}/metrics")
        server.stop()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            get(f"{url}/metrics")

    def test_stop_is_idempotent(self, registry):
        server = MetricsServer(registry).start()
        server.stop()
        server.stop()

    def test_start_is_idempotent(self, registry):
        server = MetricsServer(registry)
        try:
            assert server.start() is server.start()
        finally:
            server.stop()
