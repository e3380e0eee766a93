"""The traced run: per-layer metrics from probes, scrapes and client counters.

Three sources, named beside every metric in ``perf/README.md``:

- **probe** — the harness calls one public function of the layer in its own
  process, on inputs drawn (seeded) from the workload's store and requests,
  ``PROBE_CALLS`` times, and reports the median;
- **scrape** — the server's own ``/metrics`` registry, read when the traced
  window starts and when it ends; timers are reported as *means*
  (delta of ``_sum`` over delta of ``_count``), because the registry's
  buckets step 25/50/100 ms and cannot resolve a median of a 55 ms request,
  and because means add up: request mean minus phase means is exactly the
  time no phase timer covers;
- **client** — ``ClientStats.snapshot()`` of the workload's clients.

Spans are recorded here and in ``perf/engine.py`` only, around calls *into*
the product's public functions; nothing in ``src/`` is instrumented.
"""

from __future__ import annotations

import importlib
import itertools
import random
import shutil
import statistics
import threading
import time
import urllib.request
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace

from perf.engine import Tracer
from perf.measure import Run, environment, metric
from perf.stats import histogram_quantile, percentile
from perf.world import OUT_DIR

PROBE_CALLS = 30

# --------------------------------------------------------------------------
# scrape
# --------------------------------------------------------------------------

Samples = dict[tuple[str, tuple[tuple[str, str], ...]], float]


def parse_exposition(text: str) -> Samples:
    """Prometheus text 0.0.4 into ``(name, sorted label pairs) -> value``."""
    samples: Samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, brace, label_text = head.partition("{")
        labels = []
        if brace:
            for item in label_text.rstrip("}").split(","):
                key, _, raw = item.partition("=")
                if key:
                    labels.append((key, raw.strip('"')))
        samples[(name, tuple(sorted(labels)))] = float(value.replace("+Inf", "inf"))
    return samples


def scrape(endpoint: tuple[str, int]) -> Samples:
    host, port = endpoint
    with urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=10.0) as reply:
        return parse_exposition(reply.read().decode("utf-8"))


class ScrapeDelta:
    """What the server's registry recorded between two scrapes."""

    def __init__(self, before: Samples, after: Samples) -> None:
        self._delta = {key: value - before.get(key, 0.0) for key, value in after.items()}

    def counter(self, name: str, **labels: str) -> float:
        return self._delta.get((name, tuple(sorted(labels.items()))), 0.0)

    def mean_ms(self, name: str, **labels: str) -> float:
        """Mean of a timer's observations in the window; 0 when it saw none."""
        count = self.counter(f"{name}_count", **labels)
        return self.counter(f"{name}_sum", **labels) * 1000.0 / count if count else 0.0

    def quantile_ms(self, name: str, q: float, **labels: str) -> float:
        wanted = tuple(sorted(labels.items()))
        buckets = []
        for (sample, pairs), value in self._delta.items():
            if sample != f"{name}_bucket":
                continue
            rest = tuple(p for p in pairs if p[0] != "le")
            if rest == wanted:
                buckets.append((float(dict(pairs)["le"]), value))
        return histogram_quantile(buckets, q) * 1000.0 if buckets else 0.0

    def ratio(self, name: str, label: str, hit: str) -> float:
        """Share of a labelled counter family's increments that carry ``label=hit``."""
        total = sum(
            value for (sample, pairs), value in self._delta.items()
            if sample == name and label in dict(pairs)
        )
        return self.counter(name, **{label: hit}) / total if total else 0.0


# --------------------------------------------------------------------------
# probes
# --------------------------------------------------------------------------


@dataclass
class ProbeContext:
    world: object
    rng: random.Random
    tracer: Tracer


#: ``(metric, unit, probe)``.  A probe is a context manager that sets up its
#: inputs and yields the function to time.  That function may return a
#: callable, which is run after the clock stops (to undo what the call did).
PROBES: list[tuple[str, str, Callable]] = []


def probe(metric: str, unit: str):
    def register(build):
        PROBES.append((metric, unit, contextmanager(build)))
        return build
    return register


def _resolve(module: str, *names: str):
    """Import public names late, so a missing one costs one metric, not the run."""
    mod = importlib.import_module(module)
    found = tuple(getattr(mod, name) for name in names)
    return found[0] if len(found) == 1 else found


def _stored(ctx: ProbeContext):
    """One of the workload's stored credentials, drawn with the run's seed."""
    return ctx.rng.choice(ctx.world.stored)


@probe("pki.keys.generate_ms", "ms")
def _(ctx):
    KeyPair = _resolve("repro.pki.keys", "KeyPair")
    bits = ctx.world.key_pool.new_key().bits
    yield lambda: KeyPair.generate(bits)


@probe("pki.keys.load_encrypted_ms", "ms")
def _(ctx):
    from perf.world import PASSPHRASE

    KeyPair = _resolve("repro.pki.keys", "KeyPair")
    pems = [_stored(ctx).key_pem for _ in range(PROBE_CALLS)]
    turn = itertools.count()
    yield lambda: KeyPair.from_pem(pems[next(turn) % len(pems)], PASSPHRASE)


@probe("pki.keys.load_plain_ms", "ms")
def _(ctx):
    KeyPair = _resolve("repro.pki.keys", "KeyPair")
    pems = [_stored(ctx).proxy.require_key().to_pem() for _ in range(PROBE_CALLS)]
    turn = itertools.count()
    yield lambda: KeyPair.from_pem(pems[next(turn) % len(pems)])


@probe("pki.keys.export_encrypted_ms", "ms")
def _(ctx):
    from perf.world import PASSPHRASE

    key = _stored(ctx).proxy.require_key()
    yield lambda: key.to_pem(PASSPHRASE)


@probe("pki.proxy.sign_request_ms", "ms")
def _(ctx):
    from perf.workloads import GET_LIFETIME

    sign_proxy_request = _resolve("repro.pki.proxy", "sign_proxy_request")
    issuer = _stored(ctx).proxy
    public = ctx.world.key_pool.new_key().public
    yield lambda: sign_proxy_request(issuer, public, lifetime=GET_LIFETIME)


@probe("pki.proxy.create_ms", "ms")
def _(ctx):
    from perf.world import STORED_LIFETIME

    create_proxy = _resolve("repro.pki.proxy", "create_proxy")
    user = ctx.rng.choice(ctx.world.users)
    pool = ctx.world.key_pool
    yield lambda: create_proxy(user, lifetime=STORED_LIFETIME, key_source=pool)


@probe("pki.validation.validate_cold_ms", "ms")
def _(ctx):
    ChainValidator = _resolve("repro.pki.validation", "ChainValidator")
    validator = ChainValidator([ctx.world.ca.certificate], cache_size=0)
    chain = _stored(ctx).proxy.full_chain()
    yield lambda: validator.validate(chain)


@probe("pki.validation.validate_cached_ms", "ms")
def _(ctx):
    ChainValidator = _resolve("repro.pki.validation", "ChainValidator")
    validator = ChainValidator([ctx.world.ca.certificate])
    chain = _stored(ctx).proxy.full_chain()
    validator.validate(chain)
    yield lambda: validator.validate(chain)


def _handshake_probe(ctx: ProbeContext, resumed: bool):
    """Both sides of one handshake over an in-memory pipe, one thread each."""
    connect_secure, accept_secure = _resolve(
        "repro.transport.channel", "connect_secure", "accept_secure"
    )
    pipe_pair = _resolve("repro.transport.links", "pipe_pair")
    SessionTicketManager, TicketStore = _resolve(
        "repro.transport.tickets", "SessionTicketManager", "TicketStore"
    )
    world = ctx.world
    manager = SessionTicketManager()
    tickets = TicketStore() if resumed else None

    def once(expect_resumed: bool = resumed) -> None:
        client_link, server_link = pipe_pair("probe")
        served: list = []
        thread = threading.Thread(target=lambda: served.append(accept_secure(
            server_link, world.host, world.validator, ticket_manager=manager
        )))
        thread.start()
        channel = connect_secure(
            client_link, world.portal, world.validator,
            ticket_store=tickets, ticket_key="probe",
        )
        thread.join()
        channel.close()
        served[0].close()
        if channel.resumed != expect_resumed:
            raise RuntimeError(f"handshake resumed={channel.resumed}, wanted {expect_resumed}")

    if resumed:
        once(expect_resumed=False)  # earns the ticket every timed handshake redeems
    return once


@probe("transport.handshake.full_ms", "ms")
def _(ctx):
    yield _handshake_probe(ctx, resumed=False)


@probe("transport.handshake.resumed_ms", "ms")
def _(ctx):
    yield _handshake_probe(ctx, resumed=True)


@contextmanager
def _channel_pair(ctx: ProbeContext, serve: Callable) -> Iterator:
    """An established channel whose far end runs ``serve(channel)`` on a thread."""
    connect_secure, accept_secure = _resolve(
        "repro.transport.channel", "connect_secure", "accept_secure"
    )
    pipe_pair = _resolve("repro.transport.links", "pipe_pair")
    TransportError = _resolve("repro.util.errors", "TransportError")
    world = ctx.world
    client_link, server_link = pipe_pair("probe")

    def far_end() -> None:
        channel = accept_secure(server_link, world.host, world.validator)
        try:
            serve(channel)
        except TransportError:
            pass  # the near end closed: the probe is over

    thread = threading.Thread(target=far_end)
    thread.start()
    channel = connect_secure(client_link, world.portal, world.validator)
    try:
        yield channel
    finally:
        channel.close()
        thread.join(timeout=10.0)


@probe("transport.channel.roundtrip_us", "us")
def _(ctx):
    def echo(channel) -> None:
        while True:
            channel.send(channel.recv())

    message = bytes(1024)
    with _channel_pair(ctx, echo) as channel:
        def call() -> None:
            channel.send(message)
            if channel.recv() != message:
                raise RuntimeError("echo mismatch")
        yield call


@probe("transport.delegation.exchange_ms", "ms")
def _(ctx):
    from perf.workloads import GET_LIFETIME

    delegate_credential, accept_delegation = _resolve(
        "repro.transport.delegation", "delegate_credential", "accept_delegation"
    )
    issuer = _stored(ctx).proxy
    pool = ctx.world.key_pool

    def delegate(channel) -> None:
        while channel.recv() == b"go":
            delegate_credential(channel, issuer, lifetime=GET_LIFETIME)

    with _channel_pair(ctx, delegate) as channel:
        def call() -> None:
            channel.send(b"go")
            accept_delegation(channel, key_source=pool)
        yield call


@probe("core.protocol.codec_us", "us")
def _(ctx):
    from perf.world import PASSPHRASE, base_username

    Request, Response, Command = _resolve(
        "repro.core.protocol", "Request", "Response", "Command"
    )
    request = Request(command=Command.GET, username=base_username(ctx.rng.randrange(2048)),
                      passphrase=PASSPHRASE, lifetime=7200.0)
    response = Response.success({"granted_lifetime": 7200.0, "cred_name": "default"})

    def call() -> None:
        Request.decode(request.encode())
        Response.decode(response.encode())
    yield call


@probe("core.repository.kdf_verify_ms", "ms")
def _(ctx):
    from perf.world import PASSPHRASE

    check_passphrase = _resolve("repro.core.repository", "check_passphrase")
    verifier = _stored(ctx).verifier

    def call() -> None:
        if not check_passphrase(verifier, PASSPHRASE):
            raise RuntimeError("verifier refused the right pass phrase")
    yield call


@probe("core.repository.kdf_make_ms", "ms")
def _(ctx):
    from perf.world import KDF_ITERATIONS, PASSPHRASE

    make = _resolve("repro.core.repository", "make_passphrase_verifier")
    yield lambda: make(PASSPHRASE, KDF_ITERATIONS)


@contextmanager
def _store_copy(ctx: ProbeContext) -> Iterator:
    """A private copy of the workload's store as the server left it."""
    SegmentRepository = _resolve("repro.core.segments", "SegmentRepository")
    path = ctx.world.root / "probe-store"
    shutil.rmtree(path, ignore_errors=True)
    shutil.copytree(ctx.world.store_dir, path)
    # The server was stopped by a signal, so the copy's active segment has
    # no index sidecar; a clean open/close writes it, as any restart would.
    SegmentRepository(path).close()
    try:
        yield SegmentRepository, path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@probe("core.segments.open_ms", "ms")
def _(ctx):
    with _store_copy(ctx) as (SegmentRepository, path):
        yield lambda: SegmentRepository(path).close  # closing is not timed


def _segment_probe(ctx: ProbeContext, action: str):
    from perf.world import BASE_USERS, base_username

    with _store_copy(ctx) as (SegmentRepository, path):
        repository = SegmentRepository(path)
        try:
            names = [base_username(i) for i in ctx.rng.sample(range(BASE_USERS), PROBE_CALLS + 5)]
            template = repository.get(names[0], "default")
            turn = itertools.count()
            if action == "get_cold":
                cold = iter(names[1:])  # each name is read for the first time
                yield lambda: repository.get(next(cold), "default")
            elif action == "get_hot":
                yield lambda: repository.get(names[0], "default")
            elif action == "list_for":
                yield lambda: repository.list_for(names[0])
            elif action == "put":
                yield lambda: repository.put(
                    replace(template, username=f"probe-{next(turn):04d}")
                )
            elif action == "delete":
                def call() -> None:
                    if not repository.delete(names[1 + next(turn)], "default"):
                        raise RuntimeError("delete found nothing to delete")
                yield call
        finally:
            repository.close()


for _action, _unit in (("get_hot", "us"), ("get_cold", "us"), ("put", "ms"),
                       ("delete", "ms"), ("list_for", "us")):
    probe(f"core.segments.{_action}_{_unit}", _unit)(
        lambda ctx, action=_action: _segment_probe(ctx, action)
    )


def run_probes(ctx: ProbeContext) -> tuple[dict[str, float], dict[str, str]]:
    """Median of every probe; a probe that cannot be built or run is unresolved."""
    values: dict[str, float] = {}
    unresolved: dict[str, str] = {}
    scale = {"ms": 1e3, "us": 1e6}
    for index, (metric, unit, build) in enumerate(PROBES):
        trace_id = -(index + 1)  # probe traces are numbered below zero
        root = ctx.tracer.new_id()
        begun = time.perf_counter()
        timings: list[float] = []
        try:
            with build(ctx) as call:
                for _ in range(PROBE_CALLS):
                    start = time.perf_counter()
                    after = call()
                    end = time.perf_counter()
                    ctx.tracer.record(trace_id, root, metric.rsplit("_", 1)[0], start, end)
                    timings.append(end - start)
                    if callable(after):
                        after()
        except (ImportError, AttributeError) as exc:
            unresolved[metric] = f"{type(exc).__name__}: {exc}"
        else:
            values[metric] = statistics.median(timings) * scale[unit]
        ctx.tracer.record(trace_id, None, "perf.probe", begun, time.perf_counter(),
                          metric in values, span_id=root)
    return values, unresolved


# --------------------------------------------------------------------------
# the ledger
# --------------------------------------------------------------------------

#: Probe calls one operation makes along its blocking path, per workload:
#: the recipe behind perf.ledger.closure_ratio.  Counted from the protocol
#: (PROTOCOL.md sections 3-4), not measured.
CALLS_PER_OP: dict[str, dict[str, float]] = {
    "portal_login": {
        "transport.handshake.resumed_ms": 1, "core.protocol.codec_us": 1,
        "transport.channel.roundtrip_us": 1,
        "core.segments.get_hot_us": 0.5, "core.segments.get_cold_us": 0.5,
        "core.repository.kdf_verify_ms": 1, "pki.keys.load_encrypted_ms": 1,
        "transport.delegation.exchange_ms": 1, "pki.validation.validate_cold_ms": 1,
    },
    "renewal_storm": {
        "transport.handshake.resumed_ms": 1, "core.protocol.codec_us": 1,
        "transport.channel.roundtrip_us": 1, "core.segments.get_hot_us": 1,
        "pki.keys.load_plain_ms": 1, "transport.delegation.exchange_ms": 1,
        "pki.validation.validate_cold_ms": 1,
    },
    "init_put": {
        "pki.proxy.create_ms": 1, "transport.handshake.resumed_ms": 1,
        "core.protocol.codec_us": 1, "transport.channel.roundtrip_us": 2,
        "core.repository.kdf_make_ms": 1, "pki.keys.generate_ms": 1,
        "transport.delegation.exchange_ms": 1, "pki.validation.validate_cold_ms": 1,
        "pki.keys.export_encrypted_ms": 1, "core.segments.put_ms": 1,
    },
    "info_destroy": {
        "transport.handshake.resumed_ms": 1, "core.protocol.codec_us": 1,
        "transport.channel.roundtrip_us": 1, "core.segments.list_for_us": 0.8,
        "core.segments.get_hot_us": 0.2, "core.segments.delete_ms": 0.2,
    },
}


def ledger_ms(workload: str, probes: dict[str, float]) -> dict[str, float]:
    """Each recipe row's share of one operation, in ms (unresolved rows left out)."""
    rows = {}
    for metric, calls in CALLS_PER_OP[workload].items():
        if metric in probes:
            per_call_ms = probes[metric] / 1000.0 if metric.endswith("_us") else probes[metric]
            rows[metric] = per_call_ms * calls
    return rows


# --------------------------------------------------------------------------
# the traced run
# --------------------------------------------------------------------------

#: Per-layer metrics that are not probes, with their units, in report order.
DERIVED: list[tuple[str, str]] = [
    ("pki.validation.cache_hit_ratio", "ratio"),
    ("transport.handshake.resumed_ratio", "ratio"),
    ("transport.handshake.server_mean_ms", "ms"),
    ("transport.delegation.server_mean_ms", "ms"),
    ("core.segments.cache_hit_ratio", "ratio"),
    ("core.server.get_mean_ms", "ms"),
    ("core.server.put_mean_ms", "ms"),
    ("core.server.info_mean_ms", "ms"),
    ("core.server.destroy_mean_ms", "ms"),
    ("core.server.verify_secret_mean_ms", "ms"),
    ("core.server.denials", "count"),
    ("core.server.unattributed_ms", "ms"),
    ("qos.admission.wait_mean_ms", "ms"),
    ("qos.admission.wait_p95_ms", "ms"),
    ("qos.admission.shed_total", "count"),
    ("core.client.cpu_ms_per_op", "ms"),
    ("core.client.outside_server_ms", "ms"),
    ("core.client.dials_per_op", "ratio"),
    ("core.client.retry_rounds", "count"),
    ("core.client.busy_backoffs", "count"),
    ("perf.generator.lateness_p95_ms", "ms"),
    ("perf.trace.overhead_ratio", "ratio"),
    ("perf.ledger.closure_ratio", "ratio"),
    ("perf.run.failed_share", "ratio"),
]

_COMMANDS = ("GET", "PUT", "INFO", "DESTROY")
#: The phase timers that run inside the request timer (the handshake's runs
#: before it starts).
_PHASES_IN_REQUEST = ("verify_secret", "delegation")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in order."""
    return {name: unit for name, unit, _ in PROBES} | dict(DERIVED)


def _request_ms(delta: ScrapeDelta) -> tuple[float, float]:
    """(mean request time, mean time no phase timer covers) over all commands, ms."""
    count = sum(delta.counter("myproxy_request_seconds_count", command=c) for c in _COMMANDS)
    if not count:
        return 0.0, 0.0
    total = sum(delta.counter("myproxy_request_seconds_sum", command=c) for c in _COMMANDS)
    phases = sum(delta.counter("myproxy_phase_seconds_sum", phase=p) for p in _PHASES_IN_REQUEST)
    return total * 1000.0 / count, (total - phases) * 1000.0 / count


def derive(delta: ScrapeDelta, client: dict, traced: dict, untraced: dict,
           ledger: dict[str, float], failed_share: float) -> dict[str, float]:
    """Every ``DERIVED`` metric from the scrape delta, client counters and windows."""
    hits = delta.counter("myproxy_storage_cache_hits_total")
    reads = hits + delta.counter("myproxy_storage_cache_misses_total")
    request_mean, unattributed = _request_ms(delta)
    lateness = traced["lateness_ms"]
    derived = {
        "pki.validation.cache_hit_ratio": delta.ratio("myproxy_chain_cache_total", "result", "hit"),
        "transport.handshake.resumed_ratio":
            delta.ratio("myproxy_resumption_total", "outcome", "hit"),
        "transport.handshake.server_mean_ms":
            delta.mean_ms("myproxy_phase_seconds", phase="handshake"),
        "transport.delegation.server_mean_ms":
            delta.mean_ms("myproxy_phase_seconds", phase="delegation"),
        "core.segments.cache_hit_ratio": hits / reads if reads else 0.0,
        "core.server.verify_secret_mean_ms":
            delta.mean_ms("myproxy_phase_seconds", phase="verify_secret"),
        "core.server.denials": delta.counter("myproxy_denials_total"),
        "core.server.unattributed_ms": unattributed,
        "qos.admission.wait_mean_ms": delta.mean_ms("myproxy_qos_admission_wait_seconds"),
        "qos.admission.wait_p95_ms": delta.quantile_ms("myproxy_qos_admission_wait_seconds", 0.95),
        "qos.admission.shed_total": delta.counter("myproxy_shed_total"),
        "core.client.cpu_ms_per_op": traced["client_cpu_ms_per_op"],
        "core.client.outside_server_ms": traced["latency_mean_ms"] - request_mean,
        "core.client.dials_per_op": client["dial_attempts"] / max(client["operations"], 1),
        "core.client.retry_rounds": client["retry_rounds"],
        "core.client.busy_backoffs": client["busy_backoffs"],
        "perf.generator.lateness_p95_ms": percentile(lateness, 0.95) if lateness else 0.0,
        "perf.trace.overhead_ratio": traced["latency_p50_ms"] / untraced["latency_p50_ms"],
        "perf.ledger.closure_ratio": sum(ledger.values()) / traced["latency_p50_ms"],
        "perf.run.failed_share": failed_share,
    }
    for command in _COMMANDS:
        derived[f"core.server.{command.lower()}_mean_ms"] = delta.mean_ms(
            "myproxy_request_seconds", command=command
        )
    if set(derived) != set(dict(DERIVED)):
        raise RuntimeError(f"derived metrics drifted: {set(derived) ^ set(dict(DERIVED))}")
    return derived


def run_traced(workload_name: str, seed: int, seconds: float) -> dict:
    """``--trace 1``: half a window untraced, half traced, then the probes.

    The untraced half runs against a server without the metrics port and
    records no spans; its median latency is the base of
    ``perf.trace.overhead_ratio``.  The server is then restarted on the same
    store with ``--metrics-port`` and the second half is traced.
    """
    run = Run(workload_name, seed, seconds)
    half = seconds / 2.0
    tracer = Tracer()
    try:
        world = run.set_up(metrics=False)
        untraced = run.window(half)
        world.stop_server()

        server = world.start_server(metrics=True)
        command = server.command
        run.workload.prime(world)
        stats_before = run.workload.stats.snapshot()
        scrape_before = scrape(server.metrics_endpoint)
        traced = run.window(half, tracer=tracer)
        delta = ScrapeDelta(scrape_before, scrape(server.metrics_endpoint))
        stats_after = run.workload.stats.snapshot()
        run.end_checks()
        world.stop_server()  # the probes get the machine to themselves

        probes, unresolved = run_probes(
            ProbeContext(world=world, rng=random.Random(f"probes:{seed}"), tracer=tracer)
        )
    finally:
        run.close()

    client = {key: stats_after[key] - stats_before[key] for key in stats_after}
    ledger = ledger_ms(workload_name, probes)
    values: dict[str, float | None] = {name: probes.get(name) for name, _, _ in PROBES}
    values.update(derive(delta, client, traced, untraced, ledger, run.failed_share))
    units = per_layer_units()

    tracer.write(OUT_DIR / f"trace-{workload_name}.jsonl")
    _write_table(OUT_DIR / f"layers-{workload_name}.txt", workload_name, values, units,
                 ledger, traced)
    return {
        "workload": workload_name,
        "trace": 1,
        "environment": environment(seed, seconds, command),
        "samples": traced["ops"],
        "failed_share": run.failed_share,
        "errors": run.errors,
        "layers_unresolved": unresolved,
        "ledger_ms": ledger,
        "result": {
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: metric(values[name], unit) for name, unit in units.items()},
        },
    }


def _write_table(path, workload: str, values: dict, units: dict, ledger: dict[str, float],
                 traced: dict) -> None:
    lines = [f"per-layer metrics, workload {workload}, traced window of "
             f"{traced['ops']} ops, latency p50 {traced['latency_p50_ms']:.3f} ms", ""]
    for name, unit in units.items():
        shown = "unresolved" if values[name] is None else f"{values[name]:.6g}"
        lines.append(f"{name:42s} {shown:>12s} {unit}")
    lines += ["", "ledger: probe median x calls per operation, largest first (ms)"]
    for name, cost in sorted(ledger.items(), key=lambda item: -item[1]):
        lines.append(f"{name:42s} {cost:12.4f}")
    path.write_text("\n".join(lines) + "\n", "utf-8")
