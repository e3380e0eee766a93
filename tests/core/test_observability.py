"""Server-side observability: exact stats, slow-op log, /metrics, audit I/O.

The regression anchor for the old ``ServerStats`` data race: every bare
``+=`` on shared counters is gone, mutation goes through the registry's
locked counters, and N threads × M increments is exactly N·M.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.core.config import parse_config
from repro.core.policy import ServerPolicy
from repro.core.server import _FAILED_AUTH_PRUNE_EVERY, MyProxyServer
from repro.obs import fetch_metrics
from repro.util.errors import AuthenticationError, ConfigError

N_THREADS = 16
OPS_PER_THREAD = 50
PASS = "correct horse battery 1"


@pytest.fixture()
def server(host_cred, validator, clock, key_pool):
    return MyProxyServer(host_cred, validator, clock=clock, key_source=key_pool)


# ----------------------------------------------------------------------
# the data-race regression (satellite: exact counts under concurrency)
# ----------------------------------------------------------------------


class TestStatsExactness:
    FIELDS = ("connections", "puts", "gets", "denials", "retrieves")

    def test_concurrent_mixed_ops_count_exactly(self, server):
        barrier = threading.Barrier(N_THREADS)

        def work():
            barrier.wait()
            for i in range(OPS_PER_THREAD):
                server.stats.inc(self.FIELDS[i % len(self.FIELDS)])

        threads = [threading.Thread(target=work) for _ in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        per_field = N_THREADS * OPS_PER_THREAD // len(self.FIELDS)
        for field in self.FIELDS:
            assert getattr(server.stats, field) == per_field
        snap = server.stats.snapshot()
        assert sum(snap[f] for f in self.FIELDS) == N_THREADS * OPS_PER_THREAD

    def test_bare_assignment_is_rejected(self, server):
        # The old race entered through `stats.gets += 1`; any straggler
        # doing that must fail loudly, not silently lose updates.
        with pytest.raises(AttributeError):
            server.stats.gets = 5
        with pytest.raises(AttributeError):
            server.stats.gets += 1

    def test_unknown_field_is_rejected(self, server):
        with pytest.raises(AttributeError):
            server.stats.inc("nonsense")

    def test_gauge_fields(self, server):
        server.stats.set_gauge("replica_lag", 7)
        assert server.stats.replica_lag == 7
        assert server.stats.snapshot()["replica_lag"] == 7


# ----------------------------------------------------------------------
# failed-auth lockout state stays bounded (satellite)
# ----------------------------------------------------------------------


class TestFailedAuthPruning:
    def test_stale_windows_are_swept_globally(self, server, clock):
        # Keys that are never re-checked used to pin their window forever.
        for i in range(10):
            server._record_failed_auth((f"stale-{i}", "default"))
        clock.advance(server.policy.lockout_window + 1)
        # The periodic sweep fires after a batch of new failures...
        for _ in range(_FAILED_AUTH_PRUNE_EVERY):
            server._record_failed_auth(("active", "default"))
        assert set(server._failed_auths) == {("active", "default")}

    def test_success_clears_the_key(self, tb):
        alice = tb.new_user("alice")
        tb.myproxy_init(alice, passphrase=PASS)
        requester = tb.new_user("requester")
        client = tb.myproxy_client(requester.credential)

        with pytest.raises(AuthenticationError):
            client.get_delegation(username="alice", passphrase="wrong guess 9")
        assert tb.myproxy._failed_auths  # the failure was counted

        client.get_delegation(username="alice", passphrase=PASS, lifetime=3600)
        assert tb.myproxy._failed_auths == {}

    def test_lockout_still_trips(self, tb):
        alice = tb.new_user("alice")
        tb.myproxy_init(alice, passphrase=PASS)
        client = tb.myproxy_client(tb.new_user("req").credential)
        for _ in range(tb.myproxy.policy.max_failed_auths):
            with pytest.raises(AuthenticationError):
                client.get_delegation(username="alice", passphrase="wrong guess 9")
        # Now even the right pass phrase is refused inside the window.
        with pytest.raises(AuthenticationError):
            client.get_delegation(username="alice", passphrase=PASS)


# ----------------------------------------------------------------------
# audit trail: one handle, flush per record, survive disk errors
# ----------------------------------------------------------------------


class TestAuditHandle:
    def _event(self, server, ok=True):
        server.audit("/O=Grid/CN=peer", "GET", "alice", "default", ok, "x")

    def test_records_visible_without_stop(self, host_cred, validator, clock, tmp_path):
        path = tmp_path / "audit.jsonl"
        server = MyProxyServer(host_cred, validator, clock=clock, audit_path=str(path))
        self._event(server)
        self._event(server, ok=False)
        # Flushed per record: readable while the server still runs.
        lines = path.read_text("utf-8").strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["ok"] is False

    def test_one_handle_for_the_server_lifetime(
        self, host_cred, validator, clock, tmp_path
    ):
        path = tmp_path / "audit.jsonl"
        server = MyProxyServer(host_cred, validator, clock=clock, audit_path=str(path))
        handle = server._audit_file
        assert handle is not None
        for _ in range(5):
            self._event(server)
        assert server._audit_file is handle  # no reopen per event
        server.stop()
        assert server._audit_file is None  # closed on stop

    def test_event_after_stop_reopens(self, host_cred, validator, clock, tmp_path):
        path = tmp_path / "audit.jsonl"
        server = MyProxyServer(host_cred, validator, clock=clock, audit_path=str(path))
        server.stop()
        self._event(server)
        assert len(path.read_text("utf-8").strip().splitlines()) == 1

    @pytest.mark.expect_error("OSError")
    def test_disk_failure_keeps_memory_record(
        self, host_cred, validator, clock, tmp_path
    ):
        path = tmp_path / "audit.jsonl"
        server = MyProxyServer(host_cred, validator, clock=clock, audit_path=str(path))

        class BrokenFile:
            def write(self, _data):
                raise OSError("disk full")

            def flush(self):  # pragma: no cover - write already raised
                raise OSError("disk full")

            def close(self):
                pass

        server._audit_file = BrokenFile()
        self._event(server, ok=False)
        assert len(server.audit_log()) == 1  # the denial is still recorded
        assert server.stats.audit_write_failures == 1
        assert server.stats.denials == 1


# ----------------------------------------------------------------------
# stop() drains in-flight conversations (satellite)
# ----------------------------------------------------------------------


class TestStopDrains:
    def test_no_worker_threads_survive_stop(self, server):
        host, port = server.start("127.0.0.1", 0)
        # A connection the handshake will reject quickly...
        with socket.create_connection((host, port), timeout=5.0) as conn:
            conn.sendall(b"not a myproxy handshake")
        server.stop(drain_timeout=5.0)
        assert server._listener is None
        assert not any(
            t.name.startswith("myproxy-worker") and t.is_alive()
            for t in threading.enumerate()
        )


# ----------------------------------------------------------------------
# latency histograms, slow-op log, /metrics — end to end
# ----------------------------------------------------------------------


class TestInstrumentedFlows:
    def test_request_and_phase_histograms_fill(self, tb):
        alice = tb.new_user("alice")
        tb.myproxy_init(alice, passphrase=PASS)
        client = tb.myproxy_client(tb.new_user("req").credential)
        client.get_delegation(username="alice", passphrase=PASS, lifetime=3600)

        snap = tb.myproxy.metrics.snapshot()
        requests = snap["myproxy_request_seconds"]
        assert requests["command=GET"]["count"] == 1
        assert requests["command=PUT"]["count"] >= 1  # the init
        phases = snap["myproxy_phase_seconds"]
        for phase in ("handshake", "verify_secret", "delegation"):
            assert phases[f"phase={phase}"]["count"] >= 1

    def test_slow_op_log_records_phases(self, tb_factory):
        tb = tb_factory(
            myproxy_policy=ServerPolicy(slow_op_threshold=1e-9),
            start_grid_services=False,
        )
        alice = tb.new_user("alice")
        tb.myproxy_init(alice, passphrase=PASS)
        client = tb.myproxy_client(tb.new_user("req").credential)
        client.get_delegation(username="alice", passphrase=PASS, lifetime=3600)

        records = tb.myproxy.slow_ops.records()
        assert records, "every op crosses a 1ns threshold"
        get = [r for r in records if r.command == "GET"][-1]
        assert get.username == "alice"
        assert "handshake" in get.phases
        assert "verify_secret" in get.phases

    def test_client_stats_count_operations(self, tb):
        alice = tb.new_user("alice")
        tb.myproxy_init(alice, passphrase=PASS)
        client = tb.myproxy_client(tb.new_user("req").credential)
        client.get_delegation(username="alice", passphrase=PASS, lifetime=3600)
        assert client.stats.operations == 1
        assert client.stats.dial_attempts == 1
        assert client.stats.transport_failures == 0

    def test_metrics_endpoint_round_trip(self, tb):
        alice = tb.new_user("alice")
        tb.myproxy_init(alice, passphrase=PASS)
        server = tb.myproxy
        host, port = server.start_metrics_endpoint("127.0.0.1", 0)
        try:
            text = fetch_metrics(host, port)
            assert "# TYPE myproxy_puts_total counter" in text
            assert "myproxy_puts_total 1" in text
            assert 'myproxy_request_seconds_bucket{command="PUT",le="+Inf"} 1' in text
            with pytest.raises(RuntimeError):
                server.start_metrics_endpoint("127.0.0.1", 0)  # already running
        finally:
            server.stop()

    def test_stop_stops_the_exporter(self, server):
        host, port = server.start_metrics_endpoint("127.0.0.1", 0)
        server.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5).close()


# ----------------------------------------------------------------------
# config directives
# ----------------------------------------------------------------------


class TestObservabilityConfig:
    def test_slow_op_threshold_and_metrics_port(self):
        config = parse_config("slow_op_threshold 0.5\nmetrics_port 9512\n")
        assert config.policy.slow_op_threshold == 0.5
        assert config.metrics_port == 9512

    def test_defaults_leave_observability_off(self):
        config = parse_config("")
        assert config.policy.slow_op_threshold == 0.0
        assert config.metrics_port is None

    def test_metrics_port_must_be_a_tcp_port(self):
        with pytest.raises(ConfigError):
            parse_config("metrics_port 0\n")
        with pytest.raises(ConfigError):
            parse_config("metrics_port 70000\n")
        with pytest.raises(ConfigError):
            parse_config("metrics_port nine\n")

    def test_slow_op_threshold_must_be_positive(self):
        with pytest.raises(ConfigError):
            parse_config("slow_op_threshold -1\n")

    def test_server_honours_configured_threshold(self, host_cred, validator, clock):
        policy = parse_config("slow_op_threshold 0.25\n").policy
        server = MyProxyServer(host_cred, validator, clock=clock, policy=policy)
        assert server.slow_ops.threshold == 0.25
        assert server.slow_ops.enabled

    def test_explicit_threshold_overrides_policy(self, host_cred, validator, clock):
        server = MyProxyServer(
            host_cred, validator, clock=clock, slow_op_threshold=0.75
        )
        assert server.slow_ops.threshold == 0.75
