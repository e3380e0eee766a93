"""Service-thread lifecycle and polling helpers."""

import threading
import time

import pytest

from repro.util.concurrency import ServiceThread, wait_for


class TestServiceThread:
    def test_start_runs_target_until_stop(self):
        ticks = []

        def worker(stop_event):
            while not stop_event.wait(0.01):
                ticks.append(time.monotonic())

        service = ServiceThread(worker, "ticker")
        assert not service.running
        service.start()
        assert service.running
        wait_for(lambda: len(ticks) >= 2, timeout=5.0)
        service.stop()
        assert not service.running
        count = len(ticks)
        time.sleep(0.05)
        assert len(ticks) == count  # really stopped

    def test_double_start_refused(self):
        service = ServiceThread(lambda stop: stop.wait(), "w")
        service.start()
        with pytest.raises(RuntimeError, match="already running"):
            service.start()
        service.stop()

    def test_restartable_after_stop(self):
        runs = []

        def worker(stop_event):
            runs.append(1)
            stop_event.wait()

        service = ServiceThread(worker, "w")
        service.start()
        service.stop()
        service.start()
        service.stop()
        assert len(runs) == 2

    def test_stop_reports_stuck_thread(self):
        release = threading.Event()

        def stubborn(stop_event):
            release.wait(5.0)  # ignores the stop event

        service = ServiceThread(stubborn, "stubborn")
        service.start()
        with pytest.raises(RuntimeError, match="did not stop"):
            service.stop(timeout=0.05)
        release.set()

    def test_stop_when_never_started_is_noop(self):
        ServiceThread(lambda stop: None, "idle").stop()

    @pytest.mark.expect_error("RuntimeError")
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_stop_after_target_exception_is_clean(self):
        """A worker that dies on an exception must not wedge shutdown:
        stop() still returns, reports not-running, and the service can be
        restarted afterwards."""
        started = threading.Event()

        def dies(stop_event):
            started.set()
            raise RuntimeError("worker blew up")

        service = ServiceThread(dies, "dies")
        service.start()
        assert started.wait(5.0)
        wait_for(lambda: not service.running, timeout=5.0)
        service.stop()  # no hang, no raise — the thread is already gone
        assert not service.running
        service.start()  # the crash did not poison the service
        service.stop()

    @pytest.mark.expect_error("RuntimeError")
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_stop_ordering_when_target_raises_during_shutdown(self):
        """If the worker raises *while* reacting to the stop event, stop()
        must still join the thread rather than deadlock or leak it."""

        def raises_on_stop(stop_event):
            stop_event.wait(5.0)
            raise RuntimeError("cleanup failed")

        service = ServiceThread(raises_on_stop, "bad-cleanup")
        service.start()
        assert service.running
        service.stop(timeout=5.0)
        assert not service.running


class TestWaitFor:
    def test_returns_once_true(self):
        state = {"n": 0}

        def bump():
            state["n"] += 1
            return state["n"] >= 3

        wait_for(bump, timeout=5.0, interval=0.001)
        assert state["n"] >= 3

    def test_timeout_raises_with_message(self):
        with pytest.raises(TimeoutError, match="the moon"):
            wait_for(lambda: False, timeout=0.05, interval=0.01, message="the moon")
