"""The /metrics HTTP endpoint, round-tripped through fetch_metrics."""

from __future__ import annotations

import json
import socket

import pytest

from repro.obs import MetricsExporter, MetricsRegistry, SlowOpLog, fetch_metrics
from repro.util.errors import TransportError


@pytest.fixture()
def exporter():
    registry = MetricsRegistry()
    registry.counter("demo_total", "A demo counter.").inc(4)
    slow = SlowOpLog(threshold=0.1)
    slow.maybe_record(
        at=1.0, command="GET", username="alice", peer="portal", duration=0.5
    )
    exp = MetricsExporter(registry, slow_log=slow)
    exp.start("127.0.0.1", 0)
    yield exp
    exp.stop()


def test_metrics_round_trip(exporter):
    host, port = exporter.endpoint
    text = fetch_metrics(host, port)
    assert "# TYPE demo_total counter" in text
    assert "demo_total 4" in text


def test_slowlog_round_trip(exporter):
    host, port = exporter.endpoint
    body = fetch_metrics(host, port, path="/slowlog")
    [doc] = [json.loads(line) for line in body.strip().splitlines()]
    assert doc["command"] == "GET"
    assert doc["duration"] == 0.5


def test_healthz(exporter):
    host, port = exporter.endpoint
    assert fetch_metrics(host, port, path="/healthz") == "ok\n"


def test_unknown_path_is_404(exporter):
    host, port = exporter.endpoint
    with pytest.raises(TransportError, match="404"):
        fetch_metrics(host, port, path="/nope")


def test_non_get_is_405(exporter):
    host, port = exporter.endpoint
    with socket.create_connection((host, port), timeout=5.0) as conn:
        conn.sendall(b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
        data = conn.recv(65536)
    assert data.startswith(b"HTTP/1.1 405")


def test_extra_text_is_appended():
    registry = MetricsRegistry()
    exporter = MetricsExporter(registry, extra_text=lambda: "extra_metric 1\n")
    host, port = exporter.start("127.0.0.1", 0)
    try:
        assert "extra_metric 1" in fetch_metrics(host, port)
    finally:
        exporter.stop()


def test_stop_closes_the_socket(exporter):
    host, port = exporter.endpoint
    exporter.stop()
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=0.5).close()


def test_scrape_answered_while_every_myproxy_worker_is_held(key_pool):
    """The exporter has workers of its own: a peer that stalls the
    repository's only worker does not stall a health check."""
    import time

    from repro.core.server import MyProxyServer
    from repro.pki.ca import CertificateAuthority
    from repro.pki.names import DistinguishedName
    from repro.pki.validation import ChainValidator
    from repro.util.concurrency import wait_for

    ca = CertificateAuthority(
        DistinguishedName.parse("/O=Grid/CN=Exporter CA"), key=key_pool.new_key()
    )
    server = MyProxyServer(
        ca.issue_host_credential("metrics.example.org", key=key_pool.new_key()),
        ChainValidator([ca.certificate]),
        key_source=key_pool,
        max_concurrent_connections=1,
    )
    server.start()
    host, port = server.start_metrics_endpoint()
    holder = socket.create_connection(server.endpoint)
    try:
        holder.sendall(b"\x00")  # one byte of a handshake frame, then nothing
        wait_for(lambda: server._qos_inflight.value == 1, message="worker held")
        started = time.monotonic()
        assert fetch_metrics(host, port, "/healthz") == "ok\n"
        assert time.monotonic() - started < 0.5
    finally:
        holder.close()
        server.stop()
