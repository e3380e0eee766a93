"""X7/§6.4 — the HTTP binding vs. the native channel protocol.

Expected shape: per-operation cost is within the same order of magnitude —
both are dominated by the handshake and RSA work; HTTP adds JSON/HTTP
framing but *removes* one delegation round trip on GET (the CSR rides the
request), so the two bindings land close together.  Renewal-by-possession
(§6.6) costs about the same as a pass-phrase GET minus the PBKDF2.

Standalone mode additionally prices the IVOA CDP delegation lifecycle
(register → proxy-csr → certificate: three HTTPS requests) against the
two-request HTTP PUT it generalizes.

Run as benchmarks:    pytest benchmarks/bench_http_binding.py --benchmark-only
Run as a smoke check: PYTHONPATH=src python benchmarks/bench_http_binding.py --smoke --out .
"""

import argparse
import itertools
import json
import statistics
import sys
import time

import pytest

from repro.core.httpbinding import HttpMyProxyClient, MyProxyHttpGateway
from benchmarks.conftest import PASS


@pytest.fixture(scope="module")
def gateway(tcp_tb, registered_user):
    gw = MyProxyHttpGateway(tcp_tb.myproxy, key_source=tcp_tb.key_source)
    return gw, gw.serve("127.0.0.1", 0)


@pytest.fixture(scope="module")
def requester(tcp_tb):
    return tcp_tb.new_user("httpreq")


def test_x7_get_over_http_binding(benchmark, tcp_tb, gateway, requester):
    _gw, endpoint = gateway
    client = HttpMyProxyClient(
        endpoint, requester.credential, tcp_tb.validator,
        key_source=tcp_tb.key_source,
    )
    proxy = benchmark(
        lambda: client.get_delegation(username="alice", passphrase=PASS, lifetime=3600)
    )
    assert proxy.has_key
    benchmark.extra_info["binding"] = "http"


def test_x7_get_over_channel_protocol(benchmark, tcp_tb, registered_user, requester):
    """The baseline for the comparison, same repository, same machine."""
    client = tcp_tb.myproxy_client(requester.credential)
    benchmark(
        lambda: client.get_delegation(username="alice", passphrase=PASS, lifetime=3600)
    )
    benchmark.extra_info["binding"] = "channel"


def test_x7_put_over_http_binding(benchmark, tcp_tb, gateway):
    import itertools

    _gw, endpoint = gateway
    user = tcp_tb.new_user("httpputter")
    client = HttpMyProxyClient(
        endpoint, user.credential, tcp_tb.validator, key_source=tcp_tb.key_source
    )
    counter = itertools.count()

    def put_once():
        client.put(
            user.credential, username="httpputter", passphrase=PASS,
            lifetime=86400.0, cred_name=f"h{next(counter)}",
        )

    benchmark(put_once)
    benchmark.extra_info["binding"] = "http (two requests)"


# ---------------------------------------------------------------------------
# Standalone mode: price each binding, emit BENCH_http_binding.json
# ---------------------------------------------------------------------------


def _timed(fn, iterations):
    samples = []
    for _ in range(iterations):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def _stats(samples):
    ordered = sorted(samples)

    def at(q):
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    return {
        "mean_s": round(statistics.fmean(ordered), 6),
        "p50_s": round(at(0.50), 6),
        "p95_s": round(at(0.95), 6),
        "p99_s": round(at(0.99), 6),
    }


def main(argv=None) -> int:
    from repro.federation.cdp import CdpClient, CdpService
    from repro.pki.keys import PooledKeySource
    from repro.testbed import GridTestbed

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=30)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny preset for CI: 10 iterations"
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write BENCH_http_binding.json (shared schema) into DIR",
    )
    args = parser.parse_args(argv)
    iters = 10 if args.smoke else args.iterations

    key_pool = PooledKeySource(1024, size=16)
    with GridTestbed(transport="tcp", key_source=key_pool) as tb:
        alice = tb.new_user("alice")
        tb.myproxy_init(alice, passphrase=PASS)
        requester = tb.new_user("httpreq")
        gw = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)
        CdpService(gw)
        endpoint = gw.serve("127.0.0.1", 0)
        layers: dict[str, dict] = {}
        started = time.perf_counter()
        # -- GET: native channel vs HTTP binding --------------------
        channel_client = tb.myproxy_client(requester.credential)
        layers["channel_get"] = _stats(_timed(
            lambda: channel_client.get_delegation(
                username="alice", passphrase=PASS, lifetime=3600
            ), iters,
        ))
        http_client = HttpMyProxyClient(
            endpoint, requester.credential, tb.validator,
            key_source=tb.key_source,
        )
        layers["http_get"] = _stats(_timed(
            lambda: http_client.get_delegation(
                username="alice", passphrase=PASS, lifetime=3600
            ), iters,
        ))

        # -- deposit: two-request HTTP PUT vs three-request CDP -----
        putter = tb.new_user("httpputter")
        put_client = HttpMyProxyClient(
            endpoint, putter.credential, tb.validator,
            key_source=tb.key_source,
        )
        counter = itertools.count()
        layers["http_put"] = _stats(_timed(
            lambda: put_client.put(
                putter.credential, username="httpputter", passphrase=PASS,
                lifetime=86400.0, cred_name=f"h{next(counter)}",
            ), iters,
        ))
        cdp_client = CdpClient(
            endpoint, putter.credential, tb.validator,
            key_source=tb.key_source,
        )
        layers["cdp_delegate"] = _stats(_timed(
            lambda: cdp_client.delegate(
                putter.credential, username="httpputter", passphrase=PASS,
                lifetime=86400.0, cred_name=f"c{next(counter)}",
            ), iters,
        ))
        duration = time.perf_counter() - started

    ratios = {
        # The binding comparison the module docstring promises: same order
        # of magnitude, so the ratio should stay low single digits.
        "http_get_vs_channel": round(
            layers["http_get"]["p50_s"]
            / max(layers["channel_get"]["p50_s"], 1e-9), 2,
        ),
        # CDP adds one request+handshake on top of PUT — expect ~1.5×.
        "cdp_vs_http_put": round(
            layers["cdp_delegate"]["p50_s"]
            / max(layers["http_put"]["p50_s"], 1e-9), 2,
        ),
    }
    report = {"iterations": iters, "layers": layers, "ratios_p50": ratios}
    print(json.dumps(report, indent=2))

    if args.out:
        from benchmarks.common import emit_closed_loop_report

        http_get = layers["http_get"]
        total_ops = iters * 4
        path = emit_closed_loop_report(
            args.out,
            scenario="http-binding",
            script="bench_http_binding.py",
            config={"iterations": iters},
            offered_ops=total_ops,
            achieved_ops=total_ops,
            duration_s=duration,
            latency_s={
                # Headline latency: the HTTP-binding GET — the portal's
                # per-login retrieval cost over the web-facing surface.
                "p50": http_get["p50_s"],
                "p95": http_get["p95_s"],
                "p99": http_get["p99_s"],
            },
            counts={"ok": total_ops},
            extra_slo={"layers": layers, "ratios_p50": ratios},
        )
        print(f"wrote {path}", file=sys.stderr)

    # An order-of-magnitude blowout means a binding regressed structurally
    # (an extra round trip or a lost cache), not just noise.
    if max(ratios.values()) > 10.0:
        print("FAIL: a binding costs >10x its baseline", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
