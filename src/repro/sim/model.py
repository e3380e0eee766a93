"""The repository as a ``c``-server queue, with measured service times.

Model: GET requests (Figure 2 retrievals — the operation portals hammer)
arrive and contend for ``cores`` crypto workers.  Service time is the
measured per-operation cost; the default distribution is exponential with
the measured mean (so the model is an M/M/c queue and can be validated
against theory), and a lognormal option matches the benchmark's observed
right skew.

Calibration: ``ServiceTimes.measured()`` carries the means from
``bench_output.txt`` on the build machine — swap in your own numbers to
size your own deployment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.sim.des import Simulator


@dataclass(frozen=True)
class ServiceTimes:
    """Per-operation service-time parameters (seconds)."""

    mean: float = 0.0149  # measured Figure-2 GET mean (14.9 ms)
    distribution: str = "exponential"  # "exponential" | "lognormal" | "fixed"
    #: lognormal shape (sigma of the underlying normal); benchmark runs show
    #: a mild right skew around this value.
    sigma: float = 0.35

    @classmethod
    def measured_get(cls) -> ServiceTimes:
        return cls(mean=0.0149, distribution="lognormal")

    def sample(self, rng: np.random.Generator) -> float:
        if self.distribution == "fixed":
            return self.mean
        if self.distribution == "exponential":
            return float(rng.exponential(self.mean))
        if self.distribution == "lognormal":
            mu = np.log(self.mean) - self.sigma**2 / 2.0
            return float(rng.lognormal(mu, self.sigma))
        raise ValueError(f"unknown distribution {self.distribution!r}")


@dataclass
class SimulationResult:
    """Aggregated outcome of one simulation run."""

    offered_rate: float
    cores: int
    completed: int
    horizon: float
    latencies: np.ndarray
    busy_time: float
    max_queue_depth: int

    @property
    def utilization(self) -> float:
        return self.busy_time / (self.cores * self.horizon)

    @property
    def throughput(self) -> float:
        return self.completed / self.horizon

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.latencies, q)) if self.latencies.size else 0.0

    @property
    def mean_latency(self) -> float:
        return float(self.latencies.mean()) if self.latencies.size else 0.0

    def row(self) -> dict:
        return {
            "offered_per_s": round(self.offered_rate, 1),
            "cores": self.cores,
            "throughput_per_s": round(self.throughput, 1),
            "utilization": round(self.utilization, 3),
            "mean_ms": round(self.mean_latency * 1000, 2),
            "p95_ms": round(self.percentile(95) * 1000, 2),
            "p99_ms": round(self.percentile(99) * 1000, 2),
            "max_queue": self.max_queue_depth,
        }


class RepositoryModel:
    """``cores`` crypto workers in front of one FIFO request queue."""

    def __init__(
        self,
        simulator: Simulator,
        *,
        cores: int = 2,
        service: ServiceTimes | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if cores < 1:
            raise ValueError("a repository needs at least one core")
        self.simulator = simulator
        self.cores = cores
        self.service = service or ServiceTimes()
        self.rng = rng or np.random.default_rng(0)
        self._busy = 0
        self._waiting: deque[float] = deque()  # arrival times of queued requests
        self.latencies: list[float] = []
        self.busy_time = 0.0
        self.max_queue_depth = 0

    # -- the queue mechanics ----------------------------------------------

    def arrive(self) -> None:
        arrival = self.simulator.now
        if self._busy < self.cores:
            self._start_service(arrival)
        else:
            self._waiting.append(arrival)
            self.max_queue_depth = max(self.max_queue_depth, len(self._waiting))

    def _start_service(self, arrival: float) -> None:
        self._busy += 1
        duration = self.service.sample(self.rng)
        self.busy_time += duration

        def _depart() -> None:
            self.latencies.append(self.simulator.now - arrival)
            self._busy -= 1
            if self._waiting:
                self._start_service(self._waiting.popleft())

        self.simulator.schedule(duration, _depart)


def _poisson_arrivals(
    simulator: Simulator,
    model: RepositoryModel,
    rate: float,
    horizon: float,
    rng: np.random.Generator,
) -> None:
    """Schedule a Poisson arrival stream over ``[0, horizon)``."""
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= horizon:
            break
        simulator.schedule(t, model.arrive)


def simulate_load(
    *,
    offered_rate: float,
    cores: int = 2,
    service: ServiceTimes | None = None,
    horizon: float = 120.0,
    warmup: float = 10.0,
    seed: int = 0,
) -> SimulationResult:
    """Steady Poisson traffic at ``offered_rate`` requests/second.

    Latencies from the warm-up window are discarded so the measurement
    covers (quasi-)steady state.
    """
    rng = np.random.default_rng(seed)
    simulator = Simulator()
    model = RepositoryModel(simulator, cores=cores, service=service, rng=rng)
    _poisson_arrivals(simulator, model, offered_rate, horizon, rng)

    warm_count = {}

    def _mark_warm() -> None:
        warm_count["n"] = len(model.latencies)

    simulator.schedule(warmup, _mark_warm)
    simulator.run_all()
    kept = np.asarray(model.latencies[warm_count.get("n", 0):])
    return SimulationResult(
        offered_rate=offered_rate,
        cores=cores,
        completed=kept.size,
        horizon=simulator.now - warmup,
        latencies=kept,
        busy_time=model.busy_time,  # includes warmup; utilization ≈ rho anyway
        max_queue_depth=model.max_queue_depth,
    )


def simulate_burst(
    *,
    burst_size: int,
    cores: int = 2,
    service: ServiceTimes | None = None,
    background_rate: float = 5.0,
    horizon: float = 60.0,
    seed: int = 0,
) -> SimulationResult:
    """The "morning login storm": ``burst_size`` simultaneous retrievals at
    t=1s on top of steady background traffic — what a portal-linked
    deadline (a conference, a class) does to the repository."""
    rng = np.random.default_rng(seed)
    simulator = Simulator()
    model = RepositoryModel(simulator, cores=cores, service=service, rng=rng)
    _poisson_arrivals(simulator, model, background_rate, horizon, rng)
    for _ in range(burst_size):
        simulator.schedule(1.0, model.arrive)
    simulator.run_all()
    return SimulationResult(
        offered_rate=background_rate + burst_size / horizon,
        cores=cores,
        completed=len(model.latencies),
        horizon=simulator.now,
        latencies=np.asarray(model.latencies),
        busy_time=model.busy_time,
        max_queue_depth=model.max_queue_depth,
    )


def sweep_offered_load(
    rates,
    *,
    cores: int = 2,
    service: ServiceTimes | None = None,
    horizon: float = 120.0,
    seed: int = 0,
) -> list[dict]:
    """The capacity table: one row per offered rate."""
    return [
        simulate_load(
            offered_rate=rate, cores=cores, service=service,
            horizon=horizon, seed=seed,
        ).row()
        for rate in rates
    ]


def format_table(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)"
    headers = list(rows[0])
    widths = {
        h: max(len(h), *(len(str(r[h])) for r in rows)) for h in headers
    }
    lines = ["  ".join(h.rjust(widths[h]) for h in headers)]
    for row in rows:
        lines.append("  ".join(str(row[h]).rjust(widths[h]) for h in headers))
    return "\n".join(lines)
