"""Scrape endpoint: ``/metrics`` and ``/healthz`` on a daemon thread.

Stdlib only (:mod:`http.server`): a ``ThreadingHTTPServer`` bound to
loopback serves the registry's text exposition at ``/metrics`` and a JSON
liveness document at ``/healthz``.  ``stop()`` is a graceful shutdown — the
listener stops accepting, in-flight scrapes finish, and the thread joins —
so the daemon can drain its queues, publish final counter values, and only
then take the endpoint down.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.metrics import MetricsRegistry

__all__ = ["MetricsServer"]

_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsServer:
    """Serve one registry until stopped; ``port=0`` binds an ephemeral port."""

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        port: int = 0,
        host: str = "127.0.0.1",
        health=None,
    ) -> None:
        self.registry = registry
        self._health = health or (lambda: {})
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path == "/metrics":
                    body = server.registry.expose().encode()
                    self._reply(200, _CONTENT_TYPE, body)
                elif self.path == "/healthz":
                    doc = {"status": "ok", **server._health()}
                    self._reply(200, "application/json", json.dumps(doc).encode())
                else:
                    self._reply(404, "text/plain", b"not found\n")

            def _reply(self, code: int, ctype: str, body: bytes) -> None:
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence per-request stderr
                pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics", daemon=True
        )
        self._started = False

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MetricsServer":
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    def stop(self) -> None:
        """Graceful shutdown: finish in-flight scrapes, then close."""
        if self._started:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._started = False
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
