"""Failure detection and the heartbeat monitor."""

import threading
import time

import pytest

from repro.cluster.health import (
    STATE_DOWN,
    STATE_SUSPECT,
    STATE_UP,
    FailureDetector,
    HeartbeatMonitor,
)


class TestFailureDetector:
    def test_unseen_node_is_suspect(self, clock):
        detector = FailureDetector(timeout=5.0, clock=clock)
        assert detector.state("node0") == STATE_SUSPECT
        assert not detector.is_alive("node0")

    def test_heartbeat_makes_node_up(self, clock):
        detector = FailureDetector(timeout=5.0, clock=clock)
        detector.record_heartbeat("node0")
        assert detector.state("node0") == STATE_UP
        assert detector.is_alive("node0")

    def test_stale_heartbeat_becomes_suspect(self, clock):
        detector = FailureDetector(timeout=5.0, clock=clock)
        detector.record_heartbeat("node0")
        clock.advance(5.1)
        assert detector.state("node0") == STATE_SUSPECT

    def test_fresh_enough_heartbeat_stays_up(self, clock):
        detector = FailureDetector(timeout=5.0, clock=clock)
        detector.record_heartbeat("node0")
        clock.advance(4.9)
        assert detector.state("node0") == STATE_UP

    def test_mark_down_and_recovery(self, clock):
        detector = FailureDetector(timeout=5.0, clock=clock)
        detector.record_heartbeat("node0")
        detector.mark_down("node0")
        assert detector.state("node0") == STATE_DOWN
        detector.record_heartbeat("node0")  # the node came back
        assert detector.state("node0") == STATE_UP

    def test_suspects_lists_everything_not_up(self, clock):
        detector = FailureDetector(timeout=5.0, clock=clock)
        detector.record_heartbeat("node0")
        detector.record_heartbeat("node1")
        detector.mark_down("node1")
        assert detector.suspects(["node0", "node1", "node2"]) == ["node1", "node2"]

    def test_timeout_must_be_positive(self, clock):
        with pytest.raises(ValueError, match="positive"):
            FailureDetector(timeout=0.0, clock=clock)


class TestHeartbeatMonitor:
    def test_sweep_records_successful_probes(self, clock):
        detector = FailureDetector(timeout=5.0, clock=clock)
        monitor = HeartbeatMonitor(
            detector, ["node0", "node1"], probe=lambda name: name == "node0"
        )
        monitor.sweep_once()
        assert detector.state("node0") == STATE_UP
        assert detector.state("node1") == STATE_SUSPECT

    def test_probe_exception_counts_as_miss(self, clock):
        detector = FailureDetector(timeout=5.0, clock=clock)

        def probe(name):
            raise ConnectionError("node unreachable")

        HeartbeatMonitor(detector, ["node0"], probe).sweep_once()
        assert detector.state("node0") == STATE_SUSPECT

    def test_on_sweep_hook_runs_after_probes(self, clock):
        detector = FailureDetector(timeout=5.0, clock=clock)
        order = []
        monitor = HeartbeatMonitor(
            detector,
            ["node0"],
            probe=lambda name: order.append("probe") or True,
            on_sweep=lambda: order.append("sweep"),
        )
        monitor.sweep_once()
        assert order == ["probe", "sweep"]

    @pytest.mark.expect_error("RuntimeError")
    def test_on_sweep_exception_does_not_kill_monitoring(self, clock):
        detector = FailureDetector(timeout=5.0, clock=clock)

        def bad_hook():
            raise RuntimeError("failover check blew up")

        monitor = HeartbeatMonitor(
            detector, ["node0"], probe=lambda name: True, on_sweep=bad_hook
        )
        monitor.sweep_once()  # must not raise
        assert detector.state("node0") == STATE_UP

    def test_background_loop_sweeps_until_stopped(self, clock):
        detector = FailureDetector(timeout=5.0, clock=clock)
        sweeps = threading.Event()
        count = [0]

        def on_sweep():
            count[0] += 1
            if count[0] >= 2:
                sweeps.set()

        monitor = HeartbeatMonitor(
            detector, ["node0"], probe=lambda name: True,
            interval=0.01, on_sweep=on_sweep,
        )
        monitor.start()
        assert sweeps.wait(5.0)
        monitor.stop()
        settled = count[0]
        time.sleep(0.05)
        assert count[0] in (settled, settled + 1)  # at most one straggler sweep
        monitor.stop()  # idempotent
