"""B-QoS — graceful overload: goodput, shed rate, and tail wait past capacity.

The QoS layer's promise (see ``repro.qos`` and DESIGN.md §6.2): when
offered load exceeds worker capacity the repository keeps serving at
capacity, refuses the overflow with an explicit busy/``RETRY_AFTER``
answer, and never silently resets a connection on the admission path.
This benchmark prices that promise with an offered-load sweep at 2× and
4× capacity and records, per run:

- **goodput** — completed GETs per second (should track capacity, not
  collapse as offered load grows);
- **shed rate** — busy answers, split by reason label;
- **bare resets** — connections that died without a hint (asserted zero
  with QoS on);
- **p99 admission wait** — from the server's own
  ``myproxy_qos_admission_wait_seconds`` histogram.

A second benchmark compares graceful shedding against the old
*drop-on-accept* shape (emulated by stubbing the shed path to a silent
close): same offered load, but the overflow shows up as bare resets the
client can only guess about.

Run as a benchmark:    pytest benchmarks/bench_overload.py --benchmark-only
Run as a smoke check:  PYTHONPATH=src python benchmarks/bench_overload.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

from repro.core.client import MyProxyClient, RetryPolicy, myproxy_init_from_longterm
from repro.core.policy import ServerPolicy
from repro.core.server import MyProxyServer
from repro.pki.ca import CertificateAuthority
from repro.pki.keys import PooledKeySource
from repro.pki.names import DistinguishedName
from repro.pki.validation import ChainValidator
from repro.util.errors import ServerBusyError

PASS = "benchmark pass phrase 1"

#: No client-side busy retries: every shed must surface so the tallies
#: below count exactly what the server refused, not what retries hid.
NO_BUSY_RETRY = RetryPolicy(busy_retries=0)


def _build_server(key_source, *, max_conns, depth, deadline):
    """A small TCP repository with alice registered, ready to be flooded."""
    ca = CertificateAuthority(
        DistinguishedName.parse("/O=Grid/CN=Overload CA"), key=key_source.new_key()
    )
    validator = ChainValidator([ca.certificate])
    policy = ServerPolicy()
    policy.qos_queue_depth = depth
    policy.qos_queue_deadline = deadline
    policy.connection_timeout = 10.0
    server = MyProxyServer(
        ca.issue_host_credential("overload.example.org", key=key_source.new_key()),
        validator,
        key_source=key_source,
        policy=policy,
        max_concurrent_connections=max_conns,
    )
    endpoint = server.start()
    alice = ca.issue_credential(
        DistinguishedName.grid_user("Grid", "Repro", "Alice"),
        key=key_source.new_key(),
    )
    client = MyProxyClient(endpoint, alice, validator, key_source=key_source)
    myproxy_init_from_longterm(
        client, alice, username="alice", passphrase=PASS, key_source=key_source
    )
    return server, endpoint, alice, validator


def _flood(server, endpoint, alice, validator, key_source, *, clients, ops):
    """``clients`` concurrent threads each attempt ``ops`` GETs; tally fates."""
    lock = threading.Lock()
    tallies = {"served": 0, "busy": 0, "resets": 0}
    barrier = threading.Barrier(clients)

    def worker():
        client = MyProxyClient(
            endpoint, alice, validator, key_source=key_source, retry=NO_BUSY_RETRY
        )
        barrier.wait()
        for _ in range(ops):
            try:
                client.get_delegation(username="alice", passphrase=PASS, lifetime=3600)
                outcome = "served"
            except ServerBusyError as exc:
                outcome = "busy"
                # Honor a sliver of the hint so the flood is a flood, not a
                # busy-spin against the accept loop.
                time.sleep(min(max(exc.retry_after, 0.0), 0.05))
            except Exception:  # noqa: BLE001 - a reset is the *measurement*
                outcome = "resets"
            with lock:
                tallies[outcome] += 1

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    elapsed = time.perf_counter() - start
    offered = clients * ops
    attempted = sum(tallies.values())
    return {
        **tallies,
        "offered": offered,
        # Closed-loop honesty: each client only issues its next GET after
        # the previous one returns, so the attempt *rate* is throttled by
        # server latency — there is no independent offered rate, and under
        # overload the flood arrives slower than any open-loop arrival
        # process would have.  ``offered`` above is therefore an op
        # *count*; the only rate a closed loop can report is the achieved
        # one.
        "loop": "closed",
        "offered_rate_per_s": None,  # undefined in a closed loop
        "achieved_attempts": attempted,
        "achieved_rate_per_s": round(attempted / elapsed, 2) if elapsed else 0.0,
        "elapsed_s": round(elapsed, 3),
        "goodput_per_s": round(tallies["served"] / elapsed, 2) if elapsed else 0.0,
        "shed_fraction": round(tallies["busy"] / offered, 3),
        "latency_note": (
            "latencies in this report are closed-loop (measured from request "
            "start after the previous completion) and are NOT comparable "
            "with repro.loadgen's open-loop, intended-arrival numbers"
        ),
    }


def _qos_extra(server) -> dict:
    """The server's own view: shed reasons and the admission-wait tail."""
    snap = server.metrics.snapshot()
    wait = snap.get("myproxy_qos_admission_wait_seconds") or {}
    return {
        "shed_total": server.stats.shed,
        "shed_reasons": dict(snap.get("myproxy_shed_reason_total") or {}),
        "admission_waits_observed": wait.get("count", 0),
        "admission_wait_p50_s": wait.get("p50"),
        "admission_wait_p99_s": wait.get("p99"),
    }


def _emulate_drop_on_accept(server) -> None:
    """Regress the shed path to the pre-QoS shape: close without a word."""
    listener = server._listener
    graceful = listener._shed

    def bare_drop(item, reason, retry_after):
        conn, _peer, channel, _binding = item
        if channel is not None:  # a kept channel's request: not this path
            graceful(item, reason, retry_after)
            return
        server.stats.inc("shed")
        try:
            conn.close()
        except OSError:
            pass

    listener._shed = bare_drop


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------

CAPACITY = 2  # worker slots for the sweep below


def test_bqos_goodput_past_capacity_2x(benchmark, key_pool):
    _sweep(benchmark, key_pool, offered_multiple=2)


def test_bqos_goodput_past_capacity_4x(benchmark, key_pool):
    _sweep(benchmark, key_pool, offered_multiple=4)


def _sweep(benchmark, key_pool, *, offered_multiple):
    server, endpoint, alice, validator = _build_server(
        key_pool, max_conns=CAPACITY, depth=4, deadline=0.5
    )
    try:
        result = benchmark.pedantic(
            _flood,
            args=(server, endpoint, alice, validator, key_pool),
            kwargs={"clients": CAPACITY * offered_multiple, "ops": 4},
            rounds=1,
            iterations=1,
        )
        benchmark.extra_info["offered_multiple"] = offered_multiple
        benchmark.extra_info.update(result)
        benchmark.extra_info.update(_qos_extra(server))
    finally:
        server.stop()
    # The contract under flood: overflow is *told*, never reset.
    assert result["resets"] == 0, result
    assert result["served"] > 0, result


def test_bqos_graceful_vs_drop_on_accept(benchmark, key_pool):
    """Same overload twice: QoS shedding, then the old silent-close shape."""
    server, endpoint, alice, validator = _build_server(
        key_pool, max_conns=1, depth=0, deadline=0.2
    )
    try:
        graceful = benchmark.pedantic(
            _flood,
            args=(server, endpoint, alice, validator, key_pool),
            kwargs={"clients": 4, "ops": 3},
            rounds=1,
            iterations=1,
        )
        benchmark.extra_info["graceful"] = {**graceful, **_qos_extra(server)}
    finally:
        server.stop()

    server, endpoint, alice, validator = _build_server(
        key_pool, max_conns=1, depth=0, deadline=0.2
    )
    _emulate_drop_on_accept(server)
    try:
        bare = _flood(
            server, endpoint, alice, validator, key_pool, clients=4, ops=3
        )
        benchmark.extra_info["drop_on_accept"] = bare
    finally:
        server.stop()

    assert graceful["resets"] == 0, graceful
    assert graceful["busy"] > 0, graceful
    assert bare["resets"] > 0, bare  # the old shape: silence, not a hint


# ----------------------------------------------------------------------
# CLI / CI smoke mode: no pytest, tiny load, nonzero exit on a broken
# contract (a reset with QoS on, or zero goodput).
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--ops", type=int, default=4, help="GET attempts per client")
    parser.add_argument("--max-conns", type=int, default=2, help="worker slots")
    parser.add_argument("--depth", type=int, default=4, help="admission queue depth")
    parser.add_argument("--deadline", type=float, default=0.5)
    parser.add_argument(
        "--compare", action="store_true",
        help="also run the drop-on-accept emulation for contrast",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny preset for CI: 4 clients x 2 ops against 2 slots",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write BENCH_overload.json (shared schema) into DIR",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.clients, args.ops, args.max_conns, args.depth = 4, 2, 2, 2
        args.compare = True

    key_source = PooledKeySource(1024, size=8)
    report: dict = {}

    server, endpoint, alice, validator = _build_server(
        key_source, max_conns=args.max_conns, depth=args.depth,
        deadline=args.deadline,
    )
    try:
        result = _flood(
            server, endpoint, alice, validator, key_source,
            clients=args.clients, ops=args.ops,
        )
        report["qos"] = {**result, **_qos_extra(server)}
    finally:
        server.stop()

    if args.compare:
        server, endpoint, alice, validator = _build_server(
            key_source, max_conns=args.max_conns, depth=args.depth,
            deadline=args.deadline,
        )
        _emulate_drop_on_accept(server)
        try:
            report["drop_on_accept"] = _flood(
                server, endpoint, alice, validator, key_source,
                clients=args.clients, ops=args.ops,
            )
        finally:
            server.stop()

    print(json.dumps(report, indent=2))
    if args.out:
        from benchmarks.common import emit_closed_loop_report

        qos = report["qos"]
        attempted = qos["achieved_attempts"]
        path = emit_closed_loop_report(
            args.out,
            scenario="overload",
            script="bench_overload.py",
            config={
                "clients": args.clients, "ops": args.ops,
                "max_conns": args.max_conns, "depth": args.depth,
                "deadline": args.deadline,
            },
            offered_ops=qos["offered"],
            achieved_ops=attempted,
            duration_s=qos["elapsed_s"],
            latency_s={
                # This script measures throughput/shed, not latency; the
                # server's own admission-wait tail is the only latency it
                # can honestly report.
                "p50": qos.get("admission_wait_p50_s") or 0.0,
                "p95": qos.get("admission_wait_p99_s") or 0.0,
                "p99": qos.get("admission_wait_p99_s") or 0.0,
            },
            counts={"ok": qos["served"], "busy": qos["busy"],
                    "error": qos["resets"]},
            shed_rate=qos["busy"] / attempted if attempted else 0.0,
            error_rate=qos["resets"] / attempted if attempted else 0.0,
            extra_slo={"shed_reasons": qos.get("shed_reasons", {})},
        )
        print(f"wrote {path}", file=sys.stderr)
    if result["resets"] or not result["served"]:
        print("FAIL: QoS contract broken (bare resets or zero goodput)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
