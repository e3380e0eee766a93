"""One run: set-ups, the measured window, reply and end-state checks."""

from __future__ import annotations

import os
import platform
import random
import statistics
import time

import cryptography

from perf import procstat
from perf.engine import Tracer, run_window
from perf.stats import percentile, supports_tail
from perf.workloads import WORKLOADS, Workload
from perf.world import KEY_BITS, World

#: Set-ups per run; ``setup_s`` is their median.  The last one is measured.
SETUPS = 3
FAILED_SHARE_LIMIT = 0.01
TAIL_QUANTILE = 0.95
#: What ``--trace 0`` reports; BENCHMARK.json's end_to_end list names the same.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_per_s": "1/s",
    "server_cpu_ms_per_op": "ms",
    "server_rss_mb": "MiB",
}


def metric(value: float | None, unit: str) -> dict:
    return {"value": value, "unit": unit}


def environment(seed: int, seconds: float, server_command: list[str]) -> dict:
    return {
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "key_bits": KEY_BITS,
        "server_flags": server_command[4:],
    }


class Run:
    """One workload, one seed: set-ups, windows, checks."""

    def __init__(self, workload_name: str, seed: int, seconds: float) -> None:
        self.workload_name = workload_name
        self.workload: Workload | None = None
        self.seconds = seconds
        self.rng = random.Random(f"{workload_name}:{seed}")
        self.setup_seconds: list[float] = []
        self.world: World | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def set_up(self, metrics: bool = False) -> World:
        """PKI + store build + server start until "listening" + warm-up."""
        started = time.perf_counter()
        # A workload object remembers what it did to its world's store, so
        # every set-up starts a new one.
        self.workload = WORKLOADS[self.workload_name]()
        world = World(lambda w, now: self.workload.extra_entries(w, now, self.seconds))
        try:
            world.start_server(metrics=metrics)
            self.workload.prime(world)
        except BaseException:
            world.close()
            raise
        self.setup_seconds.append(time.perf_counter() - started)
        self.world = world
        return world

    def close(self) -> None:
        if self.world is not None:
            self.world.close()
            self.world = None

    def window(self, seconds: float, tracer: Tracer | None = None) -> dict:
        """Measure one window; returns the raw end-to-end numbers."""
        assert self.world is not None and self.world.server is not None
        plan = self.workload.plan(self.rng, seconds)
        pid = self.world.server.pid
        server_cpu = procstat.cpu_seconds(pid)
        client_cpu = time.process_time()
        result = run_window(plan, seconds, self.workload.execute, tracer=tracer)
        client_cpu = time.process_time() - client_cpu
        server_cpu = procstat.cpu_seconds(pid) - server_cpu
        rss = procstat.peak_rss_mib(pid)

        self.attempted += len(result.samples)
        self.failed += result.failed
        self.errors.extend(result.errors)
        latencies = result.latencies_ms()
        if not latencies:
            raise RuntimeError(f"no operation succeeded: {result.errors}")
        done = len(latencies)
        return {
            "ops": done,
            "tail_supported": supports_tail(done, TAIL_QUANTILE),
            "latency_mean_ms": statistics.fmean(latencies),
            "latency_p50_ms": percentile(latencies, 0.5),
            "latency_p95_ms": percentile(latencies, TAIL_QUANTILE),
            "throughput_per_s": done / result.elapsed,
            "server_cpu_ms_per_op": server_cpu * 1000.0 / done,
            "client_cpu_ms_per_op": client_cpu * 1000.0 / done,
            "server_rss_mb": rss,
            "lateness_ms": result.lateness_ms(),
        }

    def end_checks(self) -> None:
        for check in self.workload.end_checks():
            self.attempted += 1
            try:
                check()
            except Exception as exc:  # noqa: BLE001 - a wrong end state is a counted result
                self.failed += 1
                self.errors.append(f"end check: {type(exc).__name__}: {exc}")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """``--trace 0``: tracing and the metrics port off."""
    run = Run(workload, seed, seconds)
    try:
        for _ in range(SETUPS - 1):
            run.set_up()
            run.close()
        world = run.set_up()
        command = world.server.command
        numbers = run.window(seconds)
        run.end_checks()
    finally:
        run.close()
    numbers["setup_s"] = statistics.median(run.setup_seconds)
    metrics = {name: metric(numbers[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return {
        "workload": workload,
        "trace": 0,
        "environment": environment(seed, seconds, command),
        "samples": numbers["ops"],
        "tail_supported": numbers["tail_supported"],
        "setup_samples_s": run.setup_seconds,
        "failed_share": run.failed_share,
        "errors": run.errors,
        "result": {
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        },
    }
