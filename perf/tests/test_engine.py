import random
import time

import pytest

from perf.engine import ARRIVAL_JITTER, Plan, Tracer, arrival_offsets, run_window


def test_schedule_is_a_function_of_the_seed():
    one = arrival_offsets(random.Random("portal_login:7"), 8.0, 20.0)
    two = arrival_offsets(random.Random("portal_login:7"), 8.0, 20.0)
    other = arrival_offsets(random.Random("portal_login:8"), 8.0, 20.0)
    assert one == two
    assert one != other
    assert len(one) == 160
    assert one == sorted(one) and 0.0 <= one[0] and one[-1] < 20.0


def test_arrivals_stay_inside_their_slots():
    offsets = arrival_offsets(random.Random(1), 10.0, 5.0)
    slot = 0.1
    for i, offset in enumerate(offsets):
        centre = (i + 0.5) * slot
        assert abs(offset - centre) <= ARRIVAL_JITTER * slot / 2 + 1e-12


def test_workload_plans_are_seeded():
    from perf.workloads import PortalLogin, RenewalStorm

    for cls in (PortalLogin, RenewalStorm):
        a = cls().plan(random.Random("x:1"), 10.0)
        b = cls().plan(random.Random("x:1"), 10.0)
        c = cls().plan(random.Random("x:2"), 10.0)
        assert (a.ops, a.offsets) == (b.ops, b.offsets)
        assert a.ops != c.ops


def test_open_loop_charges_a_stall_to_the_arrivals_it_delays():
    # Ten arrivals 20 ms apart on one connection; the third op stalls for
    # 150 ms.  A generator that timed from the actual send would report
    # ~1 ms for everything after the stall; timed from the intended arrival,
    # the arrivals queued behind it carry the wait.
    offsets = [0.02 * i for i in range(10)]
    ops = [("op", i) for i in range(10)]

    def execute(worker, op, span):
        time.sleep(0.15 if op[1] == 2 else 0.001)

    result = run_window(Plan(ops=[ops], offsets=offsets), 0.2, execute, workers=1)
    by_due = sorted(result.samples, key=lambda s: s.due)
    latency = [s.end - s.due for s in by_due]
    assert len(latency) == 10 and result.failed == 0
    assert latency[1] < 0.05
    assert latency[2] >= 0.15
    # due 60 ms, but the connection is busy until ~190 ms
    assert latency[3] >= 0.10
    assert latency[4] >= 0.08
    assert not by_due[3].waited and by_due[1].waited
    # lateness only counts arrivals a free worker was waiting for
    assert len(result.lateness_ms()) < 10


def test_closed_loop_cycles_until_the_deadline_and_counts_failures():
    calls = []

    def execute(worker, op, span):
        calls.append((worker, op))
        time.sleep(0.005)
        if op[1] == "bad":
            raise RuntimeError("wrong reply")

    plan = Plan(ops=[[("op", "good"), ("op", "bad")], [("op", "good")]], cycle=True)
    result = run_window(plan, 0.1, execute, workers=2)
    assert len(result.samples) == len(calls) > 6
    assert result.failed == sum(1 for _, op in calls if op[1] == "bad") > 0
    assert result.errors and "wrong reply" in result.errors[0]
    assert result.elapsed == pytest.approx(0.1, abs=0.05)


def test_finite_closed_plan_ends_the_window_early():
    plan = Plan(ops=[[("op", 1)] * 3, [("op", 2)] * 2])
    result = run_window(plan, 5.0, lambda w, op, span: None, workers=2)
    assert len(result.samples) == 5
    assert result.elapsed < 1.0


def test_tracer_links_child_spans_to_the_operation():
    tracer = Tracer()

    def execute(worker, op, span):
        with span("core.client.info"):
            pass

    run_window(Plan(ops=[[("info", 0)]], offsets=[0.0]), 0.05, execute, tracer=tracer, workers=1)
    child, root = tracer.spans
    assert child[3] == "core.client.info" and root[3] == "perf.op.info"
    assert child[0] == root[0] and child[2] == root[1] and root[2] is None
    assert root[4] <= child[4] <= child[5] <= root[5]
