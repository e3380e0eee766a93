"""A minimal plain-HTTP ``/metrics`` endpoint.

Scrapers (Prometheus, curl, the ``myproxy-admin metrics`` CLI) poll this
endpoint; it serves:

- ``GET /metrics``  — the registry in text exposition format;
- ``GET /slowlog``  — the slow-operation log as JSON lines;
- ``GET /healthz``  — liveness probe (``ok``).

The endpoint is intentionally *not* the MyProxy protocol port and speaks
no GSI: metrics are operational metadata, never credential material, and
a scrape must stay cheap (no handshake, no delegation).  Deployments that
consider even metadata sensitive simply don't enable it — the server runs
identically without.  The exporter is a plain-HTTP binding
(:class:`~repro.web.server.PlainHttpBinding`: one request per
connection) on a listener of its own, so a scrape is answered even while
every MyProxy worker is busy.
"""

from __future__ import annotations

from repro.obs.prometheus import CONTENT_TYPE, render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.slowlog import SlowOpLog
from repro.transport.listener import Listener
from repro.util.errors import ProtocolError, TransportError
from repro.util.logging import get_logger
from repro.web.client import RawTcpTransport
from repro.web.http11 import HttpRequest, HttpResponse
from repro.web.server import PlainHttpBinding

logger = get_logger("obs.exporter")

#: Its own workers (a scrape never waits on a MyProxy worker): scrapers are
#: few, so two, one left while a stalled peer holds the other.
WORKERS = 2
TIMEOUT = 5.0


class MetricsExporter(PlainHttpBinding):
    """Serve a registry (and optionally a slow-op log) over plain HTTP."""

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        slow_log: SlowOpLog | None = None,
        extra_text: object = None,
    ) -> None:
        self.registry = registry
        self.slow_log = slow_log
        # Optional callable returning extra exposition text appended to
        # /metrics (e.g. a cluster coordinator contributing lag lines).
        self._extra_text = extra_text
        self._listener: Listener | None = None
        self._endpoint: tuple[str, int] | None = None

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    def answer(self, channel, message: bytes) -> bool:
        request = HttpRequest.parse(message)
        channel.send(self._respond(request.method, request.path).serialize())
        return False

    def _respond(self, method: str, path: str) -> HttpResponse:
        if method != "GET":
            return HttpResponse.error(405, "metrics endpoint is read-only")
        if path == "/metrics":
            text = render_prometheus(self.registry)
            if self._extra_text is not None:
                text += self._extra_text()
            return HttpResponse(
                status=200,
                headers=[("Content-Type", CONTENT_TYPE)],
                body=text.encode("utf-8"),
            )
        if path == "/slowlog":
            body = (self.slow_log.to_json_lines() if self.slow_log else "").encode("utf-8")
            return HttpResponse(
                status=200,
                headers=[("Content-Type", "application/json")],
                body=body,
            )
        if path == "/healthz":
            return HttpResponse(
                status=200, headers=[("Content-Type", "text/plain")], body=b"ok\n"
            )
        return HttpResponse.error(404, "unknown metrics path")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        self._listener = Listener("metrics", workers=WORKERS, timeout=TIMEOUT)
        self._endpoint = self._listener.listen(host, port, self, backlog=16)
        logger.info("metrics endpoint on http://%s:%d/metrics", *self._endpoint)
        return self._endpoint

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.stop()
            self._listener = None

    @property
    def endpoint(self) -> tuple[str, int]:
        if self._endpoint is None:
            raise RuntimeError("metrics exporter is not listening")
        return self._endpoint


def fetch_metrics(host: str, port: int, path: str = "/metrics", timeout: float = 5.0) -> str:
    """One plain-HTTP GET against a metrics endpoint; returns the body text.

    Used by ``myproxy-admin metrics`` and tests; deliberately dependency-
    free (no urllib) so its failure modes are this package's own.
    """
    transport = RawTcpTransport(host, port, timeout=timeout)
    try:
        request = HttpRequest.get(path, Host=f"{host}:{port}")
        response = HttpResponse.parse(transport.roundtrip(request.serialize()))
    except ProtocolError as exc:
        raise TransportError(f"metrics endpoint sent a bad reply: {exc}") from exc
    finally:
        transport.close()
    if response.status != 200:
        raise TransportError(
            f"metrics endpoint answered {response.status} for {path!r}"
        )
    return response.text
