"""The load generator: seeded plans, an open and a closed loop, spans.

One generator process drives the server with ``WORKERS`` threads, each
holding at most one connection.  In the open loop a free worker takes the
next arrival of the schedule and sleeps until it is due; latency runs from
that *intended* time, so when both workers are busy the wait for a free
connection is counted and a stall is charged to every arrival it delays
(no coordinated omission).  In the closed loop each worker sends its next
request as soon as the previous reply was checked.
"""

from __future__ import annotations

import itertools
import json
import random
import threading
import time
from collections.abc import Callable, Sequence
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

#: Generator threads, and so connections: never more than the box has cores
#: (2 here), one of which the server's process needs.
WORKERS = 2


#: Share of its slot within which an arrival is placed (see arrival_offsets).
ARRIVAL_JITTER = 0.3


def arrival_offsets(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Intended arrival times over ``[0, seconds)``: paced, with seeded jitter.

    The window is cut into ``rate * seconds`` equal slots and each arrival
    is placed uniformly within the middle ``ARRIVAL_JITTER`` of its slot.
    Poisson arrivals were tried first and rejected as a ruler: at a rate
    that gives the tail percentile its ten samples, some 40% of requests
    overlap another one, the median falls on the edge between "ran alone"
    and "shared the server", and run-to-run spread was 40% on the median
    and over 100% on the tail.  Paced arrivals keep the offered rate and
    the open loop's accounting (latency from the intended time, whatever
    the server does) while the gap stays above the service time, so latency
    moves one-for-one with the work a request costs.  Queueing under
    saturation is what the closed-loop workloads measure.
    """
    count = max(int(round(rate * seconds)), 1)
    slot = seconds / count
    return [
        (i + 0.5 + ARRIVAL_JITTER * (rng.random() - 0.5)) * slot for i in range(count)
    ]


@dataclass(frozen=True)
class Plan:
    """Every request of one window, materialised before it starts.

    Open loop: ``offsets`` holds one intended arrival per op of the single
    shared list in ``ops[0]``.  Closed loop: ``offsets`` is ``None`` and
    ``ops[w]`` is worker ``w``'s own list, replayed from the top when
    ``cycle`` is set and ending the worker's window early otherwise.
    """

    ops: Sequence[Sequence[tuple]]
    offsets: Sequence[float] | None = None
    cycle: bool = False


@dataclass(frozen=True)
class Sample:
    due: float  # intended start (open loop) or actual start (closed loop)
    start: float
    end: float
    ok: bool
    waited: bool  # the worker was free and slept until ``due``


@dataclass
class WindowResult:
    started: float
    samples: list[Sample] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Window start to last completion."""
        return max(s.end for s in self.samples) - self.started

    def latencies_ms(self) -> list[float]:
        return [(s.end - s.due) * 1000.0 for s in self.samples if s.ok]

    def lateness_ms(self) -> list[float]:
        return [(s.start - s.due) * 1000.0 for s in self.samples if s.waited]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)


class Tracer:
    """In-memory spans: ``(trace_id, span_id, parent, layer, start, end, ok)``."""

    def __init__(self) -> None:
        # list.append and next() on itertools.count are atomic in CPython,
        # so worker threads record without a lock.
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def record(
        self, trace_id: int, parent: int | None, layer: str,
        start: float, end: float, ok: bool = True, span_id: int | None = None,
    ) -> None:
        span_id = next(self._ids) if span_id is None else span_id
        self.spans.append((trace_id, span_id, parent, layer, start, end, ok))

    def new_id(self) -> int:
        return next(self._ids)

    @contextmanager
    def span(self, trace_id: int, parent: int | None, layer: str):
        start = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            self.record(trace_id, parent, layer, start, time.perf_counter(), ok)

    def write(self, path: Path) -> None:
        keys = ("trace_id", "span_id", "parent", "layer", "start", "end", "ok")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


#: ``execute(worker, op, span)`` runs one op and checks its reply, raising on
#: a failure or a wrong reply.  ``span(layer)`` is a context manager that
#: records a child span when tracing and does nothing otherwise.
Execute = Callable[[int, tuple, Callable], None]


def no_span(_layer: str):
    """The ``span`` handed to ``execute`` when nothing is traced."""
    return nullcontext()


def run_window(
    plan: Plan,
    seconds: float,
    execute: Execute,
    *,
    tracer: Tracer | None = None,
    workers: int = WORKERS,
) -> WindowResult:
    """Drive ``plan`` for ``seconds`` and return every sample taken."""
    clock, sleep = time.perf_counter, time.sleep
    started = clock() + 0.02  # every worker is at its post by then
    result = WindowResult(started=started)
    deadline = started + seconds
    shared = itertools.count()
    lock = threading.Lock()

    def one(worker: int, trace_id: int, op: tuple, due: float, waited: bool) -> None:
        start = clock()
        ok = True
        span_factory = no_span
        root = None
        if tracer is not None:
            root = tracer.new_id()

            def span_factory(layer: str):
                return tracer.span(trace_id, root, layer)

        try:
            execute(worker, op, span_factory)
        except Exception as exc:  # noqa: BLE001 - a failed op is a counted result
            ok = False
            with lock:
                if len(result.errors) < 5:
                    result.errors.append(f"{op[0]}: {type(exc).__name__}: {exc}")
        end = clock()
        if tracer is not None:
            tracer.record(trace_id, None, f"perf.op.{op[0]}", due, end, ok, span_id=root)
        sample = Sample(due=due, start=start, end=end, ok=ok, waited=waited)
        with lock:
            result.samples.append(sample)

    def open_worker(worker: int) -> None:
        ops = plan.ops[0]
        assert plan.offsets is not None
        while True:
            index = next(shared)
            if index >= len(ops):
                return
            due = started + plan.offsets[index]
            delay = due - clock()
            if delay > 0:
                sleep(delay)
            one(worker, index, ops[index], due, waited=delay > 0)

    def closed_worker(worker: int) -> None:
        ops = plan.ops[worker]
        delay = started - clock()
        if delay > 0:
            sleep(delay)
        for count in itertools.count():
            if count >= len(ops) and not plan.cycle:
                return
            now = clock()
            if now >= deadline:
                return
            one(worker, count * workers + worker, ops[count % len(ops)], now, waited=False)

    target = open_worker if plan.offsets is not None else closed_worker
    threads = [
        threading.Thread(target=target, args=(w,), name=f"perf-worker-{w}", daemon=True)
        for w in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return result
