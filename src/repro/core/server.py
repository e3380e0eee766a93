"""The MyProxy repository server (§4, §5.1).

One conversation per connection, as in the original:

1. mutual GSI authentication (the client sees the repository's certificate,
   so "an attacker [cannot impersonate] the repository in order to steal
   credentials"; the repository authenticates the client for its ACLs);
2. one :class:`~repro.core.protocol.Request`;
3. a :class:`~repro.core.protocol.Response`;
4. for PUT/GET/STORE/RETRIEVE, the credential transfer on the same channel
   (GSI delegation for PUT/GET — private keys never travel; an encrypted
   PEM blob for the §6.1 STORE/RETRIEVE of long-term credentials);
5. for PUT/STORE, a final *commit* response after the server has validated
   and persisted what it received.

Authorization structure (§5.1):

- ``accepted_credentials`` ACL — who may PUT/STORE/DESTROY/CHANGE;
- ``authorized_retrievers`` ACL — who may GET/RETRIEVE ("particularly
  important, as it prevents unauthorized clients from retrieving a user
  proxy ... even if such clients are able to gain access to the user's
  MyProxy authentication information");
- per-credential retriever globs (§4.1 retrieval restrictions);
- per-credential secret: pass phrase verifier, OTP chain (§6.3) or site
  ticket realm (§6.3).

GET/RETRIEVE failures deliberately return one generic message ("remote
authorization/authentication failed") whether the user is unknown, the
secret is wrong or the retriever is not allowed — so the repository cannot
be used as a user-name oracle.  The audit log records the precise reason.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.core.otp import OTPVerifier
from repro.obs.exporter import MetricsExporter
from repro.obs.registry import MetricsRegistry
from repro.obs.slowlog import SlowOpLog
from repro.core.policy import ServerPolicy
from repro.core.protocol import AuthMethod, Command, Request, Response
from repro.core.repository import (
    KEY_ENC_PASSPHRASE,
    KEY_ENC_SERVER,
    CredentialRepository,
    MemoryRepository,
    RepositoryEntry,
    SecretBox,
    check_passphrase,
    make_passphrase_verifier,
)
from repro.core.siteauth import verify_ticket
from repro.gsi.acl import AccessControlList
from repro.pki.credentials import Credential
from repro.pki.keys import KeyPair, KeySource, OneShotKeyPool
from repro.pki.validation import ChainValidator, ValidatedIdentity
from repro.qos import AdmissionQueue, ClassMap, RateLimiter
from repro.transport.channel import SecureChannel, accept_secure
from repro.transport.delegation import accept_delegation, delegate_credential
from repro.transport.handshake import send_busy_notice
from repro.transport.tickets import SessionTicketManager
from repro.transport.links import Link, SocketLink
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.concurrency import ServiceThread
from repro.util.errors import (
    AuthenticationError,
    AuthorizationError,
    CredentialError,
    NotFoundError,
    PolicyError,
    ProtocolError,
    RepositoryError,
    ReproError,
    ServerBusyError,
    TransportError,
)
from repro.util.logging import get_logger

_GENERIC_DENIAL = "remote authorization/authentication failed"

#: Every this-many recorded failures, sweep *all* lockout windows for
#: stale entries — without it, a username/cred-name scan grows
#: ``_failed_auths`` forever (only re-checked keys used to be pruned).
_FAILED_AUTH_PRUNE_EVERY = 256

#: The pre-handshake per-address bucket is this many times looser than the
#: heaviest per-identity bucket: one portal address multiplexes many users,
#: so the address brake exists to stop floods, not to enforce fairness
#: (that happens post-handshake, once the DN is known).
_ANON_FANIN = 4.0

logger = get_logger("core.server")


@dataclass(frozen=True)
class AuditRecord:
    """One line of the server's security audit trail."""

    at: float
    peer: str
    command: str
    username: str
    cred_name: str
    ok: bool
    detail: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "at": self.at,
                "peer": self.peer,
                "command": self.command,
                "username": self.username,
                "cred_name": self.cred_name,
                "ok": self.ok,
                "detail": self.detail,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "AuditRecord":
        doc = json.loads(line)
        return cls(
            at=float(doc["at"]),
            peer=str(doc["peer"]),
            command=str(doc["command"]),
            username=str(doc["username"]),
            cred_name=str(doc["cred_name"]),
            ok=bool(doc["ok"]),
            detail=str(doc["detail"]),
        )


#: ServerStats counter fields, in snapshot order, with their Prometheus
#: names and help strings.  The cluster fields cover replication (see
#: repro.cluster): deliveries this node made as a primary, ops it applied
#: as a replica, failed deliveries, and promotions it won.
_STATS_COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("connections", "myproxy_connections_total", "Conversations accepted."),
    ("handshake_failures", "myproxy_handshake_failures_total",
     "Connections that failed mutual authentication."),
    ("puts", "myproxy_puts_total", "Successful PUT commands."),
    ("gets", "myproxy_gets_total", "Successful GET commands."),
    ("stores", "myproxy_stores_total", "Successful STORE commands."),
    ("retrieves", "myproxy_retrieves_total", "Successful RETRIEVE commands."),
    ("denials", "myproxy_denials_total", "Requests refused (audited)."),
    ("shed", "myproxy_shed_total",
     "TCP connections dropped by the load-shedding limit."),
    ("audit_write_failures", "myproxy_audit_write_failures_total",
     "Audit records that could not be written to the persistent trail."),
    ("replication_ops_shipped", "myproxy_replication_ops_shipped_total",
     "Write ops this node delivered to replicas as a primary."),
    ("replication_ops_applied", "myproxy_replication_ops_applied_total",
     "Shipped ops this node applied as a replica."),
    ("replication_failures", "myproxy_replication_failures_total",
     "Failed deliveries to replicas."),
    ("replication_ops_skipped", "myproxy_replication_ops_skipped_total",
     "Garbled/unverifiable shipped ops skipped pending resync."),
    ("scrub_repaired", "myproxy_scrub_repaired_total",
     "Quarantined entries restored from a cluster peer by scrub."),
    ("failovers", "myproxy_failovers_total", "Promotions this node won."),
    ("fenced_ships", "myproxy_fenced_ships_total",
     "Fresh replication ships refused for carrying a stale primary epoch."),
    ("lease_denied_writes", "myproxy_lease_denied_writes_total",
     "Writes refused (busy protocol) while the primary lease was lapsed."),
    ("cdp_delegations", "myproxy_cdp_delegations_total",
     "Delegations deposited via the IVOA CDP endpoints."),
    ("federation_redemptions", "myproxy_federation_redemptions_total",
     "SSO assertions redeemed into a peer realm by the federation gateway."),
)
#: Gauge fields: worst-case replication lag, refreshed by the cluster
#: status sweep.
_STATS_GAUGES: tuple[tuple[str, str, str], ...] = (
    ("replica_lag", "myproxy_replica_lag", "Worst-case ops behind any peer."),
    ("lease_state", "myproxy_lease_state",
     "Primary lease: 1 = held, 0 = lapsed or not a primary."),
)
_STATS_FIELDS = frozenset(
    [name for name, _, _ in _STATS_COUNTERS] + [name for name, _, _ in _STATS_GAUGES]
)


class ServerStats:
    """Operation counters, consumed by the benchmark harness.

    Backed by a :class:`~repro.obs.registry.MetricsRegistry`, so every
    count is exact under concurrency.  Reading ``stats.puts`` still works
    everywhere it used to; *mutation* goes through :meth:`inc` and
    :meth:`set_gauge` — bare ``stats.puts += 1`` was a data race (a lost
    read-modify-write under concurrent conversations) and now raises.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        object.__setattr__(self, "registry", registry)
        object.__setattr__(
            self,
            "_counters",
            {
                name: registry.counter(metric, help_text)
                for name, metric, help_text in _STATS_COUNTERS
            },
        )
        object.__setattr__(
            self,
            "_gauges",
            {
                name: registry.gauge(metric, help_text)
                for name, metric, help_text in _STATS_GAUGES
            },
        )

    def inc(self, field: str, amount: int = 1) -> None:
        """Atomically add to a counter field."""
        counter = self._counters.get(field)
        if counter is None:
            raise AttributeError(f"ServerStats has no counter {field!r}")
        counter.inc(amount)

    def set_gauge(self, field: str, value: int | float) -> None:
        gauge = self._gauges.get(field)
        if gauge is None:
            raise AttributeError(f"ServerStats has no gauge {field!r}")
        gauge.set(value)

    def __getattr__(self, name: str):
        counters = object.__getattribute__(self, "_counters")
        if name in counters:
            return counters[name].value
        gauges = object.__getattribute__(self, "_gauges")
        if name in gauges:
            return int(gauges[name].value)
        raise AttributeError(name)

    def __setattr__(self, name: str, value) -> None:
        if name in _STATS_FIELDS:
            raise AttributeError(
                f"ServerStats.{name} is an atomic metric; use "
                "stats.inc(...) / stats.set_gauge(...)"
            )
        object.__setattr__(self, name, value)

    def snapshot(self) -> dict:
        snap = {name: self._counters[name].value for name, _, _ in _STATS_COUNTERS}
        snap.update(
            {name: int(self._gauges[name].value) for name, _, _ in _STATS_GAUGES}
        )
        return snap


class MyProxyServer:
    """An online credential repository.

    Parameters
    ----------
    credential:
        The repository's own host credential — §5.2 notes these are kept
        unencrypted so the service can run unattended.
    validator:
        Chain validator holding the CAs this repository trusts.
    repository:
        Storage backend; defaults to in-memory.
    policy:
        :class:`~repro.core.policy.ServerPolicy`; defaults are the paper's
        (one week stored, hours delegated, both ACLs open).
    master_box:
        Seals private keys of OTP/site entries (which have no stable user
        secret to encrypt under).  Fresh random key per server by default.
    site_secrets:
        ``realm → shared secret`` for §6.3 site-ticket verification.
    key_source:
        Where the server's delegation-acceptance key pairs come from
        (swap in a pooled source for tests/benchmarks).
    """

    def __init__(
        self,
        credential: Credential,
        validator: ChainValidator,
        *,
        repository: CredentialRepository | None = None,
        policy: ServerPolicy | None = None,
        clock: Clock = SYSTEM_CLOCK,
        master_box: SecretBox | None = None,
        site_secrets: dict[str, bytes] | None = None,
        key_source: KeySource | None = None,
        audit_limit: int = 10_000,
        audit_path: str | None = None,
        max_concurrent_connections: int = 64,
        metrics_registry: MetricsRegistry | None = None,
        slow_op_threshold: float | None = None,
    ) -> None:
        if credential.key is None:
            raise CredentialError("the repository needs its private key to run")
        self.credential = credential
        self.validator = validator
        self.repository = repository if repository is not None else MemoryRepository()
        self.policy = policy or ServerPolicy()
        self.clock = clock
        self.master_box = master_box or SecretBox()
        self.site_secrets = dict(site_secrets or {})
        # Crypto hot path: an explicit key_source wins; otherwise the
        # policy may ask for a background one-shot pool (never-recycled
        # keys, pre-generated off the request path).  The server owns —
        # and closes — only the pool it created itself.
        self._owned_key_pool: OneShotKeyPool | None = None
        if key_source is None and self.policy.keypair_pool_size > 0:
            self._owned_key_pool = OneShotKeyPool(size=self.policy.keypair_pool_size)
            key_source = self._owned_key_pool
        self.key_source = key_source
        # One registry carries every metric this server emits; ServerStats
        # is a named-counter facade over it, and the latency histograms,
        # slow-op log and /metrics endpoint all read the same source.
        self.metrics: MetricsRegistry = (
            metrics_registry if metrics_registry is not None else MetricsRegistry()
        )
        self.stats = ServerStats(self.metrics)
        # The durable engine tracks corruption/recovery and surfaces
        # those counters on this server's /metrics endpoint.
        if hasattr(self.repository, "publish_metrics"):
            self.repository.publish_metrics(self.metrics)
        # Session resumption (transport/tickets.py): repeat clients skip
        # RSA key transport and the full chain walk.  Disabled entirely by
        # policy for deployments that want every connection to re-prove.
        self.ticket_manager: SessionTicketManager | None = None
        if self.policy.session_tickets:
            self.ticket_manager = SessionTicketManager(
                clock=self.clock, lifetime=self.policy.session_ticket_lifetime
            )
        self._resumption_total = self.metrics.counter(
            "myproxy_resumption_total",
            "Handshake resumption outcomes (hit = resumed, miss = ticket "
            "presented but refused, none = no ticket offered).",
            labelnames=("outcome",),
        )
        self.validator.publish_metrics(self.metrics)
        if hasattr(self.key_source, "publish_metrics"):
            self.key_source.publish_metrics(self.metrics)
        self._request_seconds = self.metrics.histogram(
            "myproxy_request_seconds",
            "Full conversation latency by protocol command.",
            labelnames=("command",),
        )
        self._phase_seconds = self.metrics.histogram(
            "myproxy_phase_seconds",
            "Latency of one conversation phase "
            "(handshake, verify_secret, delegation).",
            labelnames=("phase",),
        )
        threshold = (
            slow_op_threshold
            if slow_op_threshold is not None
            else self.policy.slow_op_threshold
        )
        self.slow_ops = SlowOpLog(threshold)
        self._phase_local = threading.local()
        self._metrics_exporter: MetricsExporter | None = None
        # Cluster membership (set by repro.cluster when this server joins a
        # replicated deployment; standalone servers keep the defaults).
        self.cluster_role: str = "standalone"
        self.cluster_peers: tuple[str, ...] = ()
        self._audit: deque[AuditRecord] = deque(maxlen=audit_limit)
        self._audit_lock = threading.Lock()
        # Optional persistent audit trail (JSON lines, append-only, 0600):
        # the in-memory deque is bounded, but §5.1's "allows time for the
        # intrusion to be detected" presumes a trail that survives.  One
        # handle for the server's lifetime — reopening per event made every
        # denial pay a file open/close.
        self._audit_path = audit_path
        self._audit_file = self._open_audit_file() if audit_path is not None else None
        self._listener: ServiceThread | None = None
        self._listen_sock: socket.socket | None = None
        self._endpoint: tuple[str, int] | None = None
        # -- QoS serving path (repro.qos) ------------------------------
        # A fixed pool of this many workers drains a bounded admission
        # queue; beyond it, new connections are shed with a busy notice
        # before any crypto is spent on them (a repository on a "tightly
        # secured host" should degrade predictably, not fall over).
        self.max_concurrent_connections = max_concurrent_connections
        self._class_map: ClassMap = self.policy.qos_class_map()
        # Post-handshake per-DN fairness and the pre-handshake per-address
        # flood brake keep separate tables: a noisy address must not be
        # able to spend an authenticated identity's budget, or vice versa.
        self._identity_limiter = RateLimiter()
        self._anon_limiter = RateLimiter()
        self._admission: AdmissionQueue | None = None
        self._workers: list[threading.Thread] = []
        self._workers_stop = threading.Event()
        self._sweeper: ServiceThread | None = None
        self._shed_reason_total = self.metrics.counter(
            "myproxy_shed_reason_total",
            "Connections shed on the admission path, by reason.",
            labelnames=("reason",),
        )
        self._qos_admitted_total = self.metrics.counter(
            "myproxy_qos_admitted_total",
            "Conversations admitted past QoS, by service class.",
            labelnames=("qclass",),
        )
        self._qos_queue_depth = self.metrics.gauge(
            "myproxy_qos_queue_depth",
            "Connections currently waiting in the admission queue.",
        )
        self._qos_inflight = self.metrics.gauge(
            "myproxy_qos_inflight",
            "Conversations currently being served.",
        )
        self._admission_wait_seconds = self.metrics.histogram(
            "myproxy_qos_admission_wait_seconds",
            "Time a connection spent in the admission queue before being "
            "served or shed.",
        )
        # Online-guessing lockout state: (username, cred_name) → recent
        # failed-auth timestamps.
        self._failed_auths: dict[tuple[str, str], list[float]] = {}
        self._failed_lock = threading.Lock()
        self._failed_prune_countdown = _FAILED_AUTH_PRUNE_EVERY
        # OTP verification is read-verify-advance on shared state; without
        # serialization, two concurrent logins presenting the *same* word
        # could both pass (a classic TOCTOU double-spend).
        self._otp_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle (TCP mode)
    # ------------------------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Listen on TCP and serve until :meth:`stop`.  Returns endpoint.

        Serving is a fixed pool of ``max_concurrent_connections`` workers
        fed by a bounded admission queue (see :mod:`repro.qos`): the
        accept loop only ever classifies and enqueues, workers do the
        crypto, and a sweeper sheds entries that overrun the queue
        deadline while every worker is pinned.  Anything refused on this
        path gets a busy notice naming a retry time — never a bare close.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(self.policy.listen_backlog)
        sock.settimeout(0.2)
        self._listen_sock = sock
        self._endpoint = sock.getsockname()

        queue = AdmissionQueue(
            self.policy.qos_queue_depth,
            self.policy.qos_queue_deadline,
            depth_gauge=self._qos_queue_depth,
        )
        self._admission = queue

        # Pre-handshake flood brake: per peer address, deliberately loose
        # (_ANON_FANIN × the heaviest class) because the DN is not known
        # yet — fairness proper happens post-handshake in _admit_channel.
        anon_rate = anon_burst = 0.0
        if self.policy.qos_rate > 0:
            heaviest = self._class_map.max_weight()
            anon_rate = self.policy.qos_rate * heaviest * _ANON_FANIN
            anon_burst = (
                self.policy.effective_qos_burst() * heaviest * _ANON_FANIN
            )

        def _accept_loop(stop_event: threading.Event) -> None:
            while not stop_event.is_set():
                try:
                    conn, addr = sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                peer = f"{addr[0]}:{addr[1]}"
                if anon_rate > 0:
                    retry = self._anon_limiter.check(addr[0], anon_rate, anon_burst)
                    if retry > 0:
                        self._shed_socket(conn, peer, "rate_limited", retry)
                        continue
                if not queue.offer((conn, peer)):
                    self._shed_socket(
                        conn, peer, "no_slots", queue.suggest_retry_after()
                    )

        def _sweep_loop(stop_event: threading.Event) -> None:
            # Check often enough that a shed lands well within a deadline.
            interval = min(max(queue.deadline / 4.0, 0.02), 0.25)
            while not stop_event.wait(interval):
                for ticket in queue.pop_expired():
                    conn, peer = ticket.item
                    self._admission_wait_seconds.observe(ticket.waited)
                    self._shed_socket(
                        conn, peer, "queue_deadline", queue.suggest_retry_after()
                    )

        self._workers_stop.clear()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(queue, self._workers_stop),
                daemon=True,
                name=f"myproxy-worker-{i}",
            )
            for i in range(self.max_concurrent_connections)
        ]
        for worker in self._workers:
            worker.start()
        self._sweeper = ServiceThread(_sweep_loop, "myproxy-qos-sweeper")
        self._sweeper.start()
        self._listener = ServiceThread(_accept_loop, "myproxy-listener")
        self._listener.start()
        logger.info(
            "MyProxy server listening on %s:%d (%d workers, queue depth %d)",
            *self._endpoint,
            self.max_concurrent_connections,
            self.policy.qos_queue_depth,
        )
        return self._endpoint

    def _worker_loop(self, queue: AdmissionQueue, stop: threading.Event) -> None:
        """Serve queued connections until told to stop."""
        while not stop.is_set():
            ticket = queue.take(timeout=0.2)
            if ticket is None:
                continue
            conn, peer = ticket.item
            self._admission_wait_seconds.observe(ticket.waited)
            if ticket.expired:
                self._shed_socket(
                    conn, peer, "queue_deadline", queue.suggest_retry_after()
                )
                continue
            try:
                conn.settimeout(self.policy.connection_timeout)
                self.handle_link(SocketLink(conn))
            except Exception:
                logger.exception("unhandled error serving %s", peer)
            finally:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass

    def _shed_socket(
        self, conn: socket.socket, peer: str, reason: str, retry_after: float
    ) -> None:
        """Refuse a connection on the admission path, politely.

        Every shed is counted (the aggregate plus a by-reason counter),
        audited, and told when to come back — the busy notice rides the
        handshake framing, so the client surfaces it as
        :class:`~repro.util.errors.ServerBusyError` instead of a reset.
        """
        self.stats.inc("shed")
        self._shed_reason_total.labels(reason=reason).inc()
        self._audit_event(
            peer, "ADMISSION", "", "", False,
            f"shed ({reason}); retry in {retry_after:.3f}s",
            count_denial=False,
        )
        try:
            send_busy_notice(SocketLink(conn), retry_after)
        except OSError:  # pragma: no cover - peer already gone
            pass
        self._graceful_close(conn)

    @staticmethod
    def _graceful_close(conn: socket.socket) -> None:
        """Drain-then-close so a shed burst does not become an RST storm.

        A straight ``close()`` with unread bytes in the kernel receive
        buffer — the client's hello usually landed before we decided to
        shed — makes the kernel answer with RST, which clobbers the busy
        notice still sitting in the send buffer.  Shut down our write
        side, read off whatever the peer had in flight for a bounded
        moment, then close.
        """
        try:
            conn.shutdown(socket.SHUT_WR)
        except OSError:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            return
        try:
            conn.settimeout(0.25)
            for _ in range(8):  # bounded: a chatty peer must not pin us
                if not conn.recv(4096):
                    break
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def start_metrics_endpoint(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Expose this server's registry at ``http://host:port/metrics``.

        Plain HTTP (Prometheus text exposition), plus ``/slowlog`` and
        ``/healthz``; stopped by :meth:`stop`.  Returns the bound endpoint.
        """
        if self._metrics_exporter is not None:
            raise RuntimeError("metrics endpoint already running")
        exporter = MetricsExporter(self.metrics, slow_log=self.slow_ops)
        endpoint = exporter.start(host, port)
        self._metrics_exporter = exporter
        return endpoint

    @property
    def metrics_endpoint(self) -> tuple[str, int]:
        if self._metrics_exporter is None:
            raise RuntimeError("metrics endpoint is not running")
        return self._metrics_exporter.endpoint

    def stop(self, drain_timeout: float = 5.0) -> None:
        if self._listener is not None:
            self._listener.stop()
            self._listener = None
        if self._listen_sock is not None:
            self._listen_sock.close()
            self._listen_sock = None
        if self._sweeper is not None:
            self._sweeper.stop()
            self._sweeper = None
        # Connections still queued are quietly closed: the server going
        # away IS a transport failure, and failover clients should treat
        # it as one (unlike a busy shed, which must not trigger failover).
        if self._admission is not None:
            for ticket in self._admission.close():
                conn, _peer = ticket.item
                try:
                    conn.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
            self._admission = None
        # Drain in-flight conversations (bounded): tests and benchmarks
        # must not leak worker threads or half-open sockets past stop().
        self._workers_stop.set()
        deadline = time.monotonic() + drain_timeout
        for worker in self._workers:
            worker.join(max(deadline - time.monotonic(), 0.0))
            if worker.is_alive():
                logger.warning(
                    "worker %s still serving after %.1fs drain",
                    worker.name, drain_timeout,
                )
        self._workers = []
        if self._owned_key_pool is not None:
            self._owned_key_pool.close()
        if self._metrics_exporter is not None:
            self._metrics_exporter.stop()
            self._metrics_exporter = None
        with self._audit_lock:
            if self._audit_file is not None:
                try:
                    self._audit_file.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
                self._audit_file = None

    @property
    def endpoint(self) -> tuple[str, int]:
        if self._endpoint is None:
            raise RuntimeError("server is not listening")
        return self._endpoint

    def __enter__(self) -> MyProxyServer:
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # audit
    # ------------------------------------------------------------------

    def _open_audit_file(self):
        """Open the persistent trail append-only with mode 0600."""
        fd = os.open(
            self._audit_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600
        )
        return os.fdopen(fd, "a", encoding="utf-8")

    def _audit_event(
        self,
        peer: str,
        command: str,
        username: str,
        cred_name: str,
        ok: bool,
        detail: str,
        *,
        count_denial: bool = True,
    ) -> None:
        # count_denial=False is for QoS sheds: they are audited like any
        # refusal but counted under ``shed``, not ``denials`` — denials
        # measure authorization decisions, sheds measure load.
        record = AuditRecord(
            at=self.clock.now(),
            peer=peer,
            command=command,
            username=username,
            cred_name=cred_name,
            ok=ok,
            detail=detail,
        )
        with self._audit_lock:
            # The in-memory record lands first and unconditionally: a full
            # disk must not mask the denial it was trying to record.
            self._audit.append(record)
            if self._audit_path is not None:
                try:
                    if self._audit_file is None:  # reopened after stop()
                        self._audit_file = self._open_audit_file()
                    self._audit_file.write(record.to_json() + "\n")
                    self._audit_file.flush()
                except OSError:
                    self.stats.inc("audit_write_failures")
                    logger.exception("audit write failed; record kept in memory")
        if not ok and count_denial:
            self.stats.inc("denials")
            logger.info("denied %s %s/%s from %s: %s", command, username, cred_name, peer, detail)
        elif not ok:
            logger.info("shed %s from %s: %s", command, peer, detail)

    def audit_log(self) -> list[AuditRecord]:
        with self._audit_lock:
            return list(self._audit)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    @contextmanager
    def _observe_phase(self, phase: str):
        """Time one conversation phase into the phase histogram.

        The elapsed time is also collected into the per-conversation phase
        map (thread-local, reset by :meth:`handle_link`) so a slow-op
        record can show where a slow conversation spent its time.
        """
        timer = self._phase_seconds.labels(phase=phase).time()
        try:
            with timer:
                yield timer
        finally:
            phases = getattr(self._phase_local, "phases", None)
            if phases is not None:
                phases[phase] = phases.get(phase, 0.0) + timer.elapsed

    def handle_link(self, link: Link) -> None:
        """Serve one complete conversation on ``link`` (any transport)."""
        self.stats.inc("connections")
        self._qos_inflight.inc()
        self._phase_local.phases = {}
        try:
            try:
                with self._observe_phase("handshake"):
                    channel = accept_secure(
                        link,
                        self.credential,
                        self.validator,
                        allow_anonymous=self.policy.allow_anonymous_trustroots,
                        ticket_manager=self.ticket_manager,
                    )
                if channel.resumed:
                    outcome = "hit"
                elif channel.ticket_presented:
                    outcome = "miss"
                else:
                    outcome = "none"
                self._resumption_total.labels(outcome=outcome).inc()
            except ReproError as exc:
                self.stats.inc("handshake_failures")
                self._audit_event(
                    "<unauthenticated>", "handshake", "", "", False, str(exc)
                )
                return
            try:
                if not self._admit_channel(channel):
                    return
                self._serve_channel(channel)
            except (TransportError, ProtocolError) as exc:
                self._audit_event(
                    str(channel.peer.identity), "conversation", "", "", False, str(exc)
                )
            finally:
                channel.close()
        finally:
            self._qos_inflight.dec()

    def _admit_channel(self, channel: SecureChannel) -> bool:
        """Per-identity fairness, applied once the handshake names the peer.

        The authenticated base identity resolves to its service class;
        rate and burst scale with the class weight, so a portal's shared
        DN gets proportionally more admission budget than one interactive
        user (§3's many-users-behind-one-portal shape).  This runs in
        :meth:`handle_link` so every transport — TCP or an embedded test
        link — is covered.  A refusal answers with the busy reply over
        the secure channel: the noisy identity alone is told to back
        off; nobody else's bucket is touched.
        """
        peer = channel.peer
        if peer is None:
            # Anonymous TRUSTROOTS channels have no DN to bill; in TCP
            # mode they already passed the per-address flood brake.
            self._qos_admitted_total.labels(qclass="anonymous").inc()
            return True
        subject = str(peer.identity.base_identity())
        qclass = self._class_map.resolve(subject)
        if self.policy.qos_rate > 0:
            retry = self._identity_limiter.check(
                (qclass.name, subject),
                self.policy.qos_rate * qclass.weight,
                self.policy.effective_qos_burst() * qclass.weight,
            )
            if retry > 0:
                self.stats.inc("shed")
                self._shed_reason_total.labels(reason="rate_limited").inc()
                self._audit_event(
                    str(peer.identity), "ADMISSION", "", "", False,
                    f"rate limited (class {qclass.name}); "
                    f"retry in {retry:.3f}s",
                    count_denial=False,
                )
                try:
                    channel.send(Response.busy_reply(retry).encode())
                except TransportError:  # pragma: no cover - peer gone
                    pass
                return False
        self._qos_admitted_total.labels(qclass=qclass.name).inc()
        return True

    def _serve_channel(self, channel: SecureChannel) -> None:
        peer = channel.peer
        peer_name = str(peer.identity) if peer is not None else "<anonymous>"
        try:
            request = Request.decode(channel.recv())
        except ProtocolError as exc:
            channel.send(Response.failure(f"bad request: {exc}").encode())
            raise
        if peer is None and request.command is not Command.TRUSTROOTS:
            # Anonymous channels exist only for public trust material.
            self._audit_event(
                peer_name, request.command.name, request.username,
                request.cred_name, False, "anonymous client",
            )
            channel.send(Response.failure(_GENERIC_DENIAL).encode())
            return
        handler = {
            Command.PUT: self._do_put,
            Command.GET: self._do_get,
            Command.INFO: self._do_info,
            Command.DESTROY: self._do_destroy,
            Command.CHANGE_PASSPHRASE: self._do_change_passphrase,
            Command.STORE: self._do_store,
            Command.RETRIEVE: self._do_retrieve,
            Command.TRUSTROOTS: self._do_trustroots,
            Command.GET_MULTI: self._do_get_multi,
        }[request.command]
        started = time.perf_counter()
        try:
            handler(channel, peer, request)
        except (AuthenticationError, AuthorizationError, NotFoundError) as exc:
            self._audit_event(
                peer_name,
                request.command.name,
                request.username,
                request.cred_name,
                False,
                str(exc),
            )
            channel.send(Response.failure(_GENERIC_DENIAL).encode())
        except (PolicyError, CredentialError, ProtocolError) as exc:
            self._audit_event(
                peer_name,
                request.command.name,
                request.username,
                request.cred_name,
                False,
                str(exc),
            )
            channel.send(Response.failure(str(exc)).encode())
        except ServerBusyError as exc:
            # The cluster's lease gate refused the write: the node is
            # alive but (temporarily) not allowed to acknowledge — speak
            # the busy protocol so clients back off and retry here rather
            # than failing over to a node that cannot be fresher.
            self.stats.inc("lease_denied_writes")
            self._audit_event(
                peer_name,
                request.command.name,
                request.username,
                request.cred_name,
                False,
                f"write refused, primary lease lapsed: {exc}",
            )
            channel.send(Response.busy_reply(exc.retry_after).encode())
        except RepositoryError as exc:
            # Storage trouble (I/O error, quarantined entry, failed
            # replication quorum): audit the real cause but keep the wire
            # message generic — a client must not learn spool internals.
            self._audit_event(
                peer_name,
                request.command.name,
                request.username,
                request.cred_name,
                False,
                f"repository error: {exc}",
            )
            channel.send(
                Response.failure("temporary repository error; retry").encode()
            )
        finally:
            elapsed = time.perf_counter() - started
            self._request_seconds.labels(command=request.command.name).observe(elapsed)
            self.slow_ops.maybe_record(
                at=self.clock.now(),
                command=request.command.name,
                username=request.username,
                peer=peer_name,
                duration=elapsed,
                phases=getattr(self._phase_local, "phases", None),
            )

    # ------------------------------------------------------------------
    # shared checks
    # ------------------------------------------------------------------

    def _require_acl(self, acl: AccessControlList, peer: ValidatedIdentity) -> None:
        if not acl.allows(peer.identity):
            raise AuthorizationError(
                f"{peer.identity} is not on the {acl.name} list"
            )

    def _check_lockout(self, key: tuple[str, str]) -> None:
        if self.policy.max_failed_auths <= 0:
            return
        cutoff = self.clock.now() - self.policy.lockout_window
        with self._failed_lock:
            recent = [t for t in self._failed_auths.get(key, []) if t > cutoff]
            if recent:
                self._failed_auths[key] = recent
            else:
                self._failed_auths.pop(key, None)
            if len(recent) >= self.policy.max_failed_auths:
                raise AuthenticationError(
                    f"too many failed authentications for {key[0]}/{key[1]}; "
                    "locked out"
                )

    def _record_failed_auth(self, key: tuple[str, str]) -> None:
        with self._failed_lock:
            self._failed_auths.setdefault(key, []).append(self.clock.now())
            # Periodically sweep *every* key: per-key pruning only fires on
            # re-checked keys, so a scan over many usernames would grow
            # this dict without bound.
            self._failed_prune_countdown -= 1
            if self._failed_prune_countdown <= 0:
                self._prune_failed_auths_locked()

    def _prune_failed_auths_locked(self) -> None:
        cutoff = self.clock.now() - self.policy.lockout_window
        for key in list(self._failed_auths):
            recent = [t for t in self._failed_auths[key] if t > cutoff]
            if recent:
                self._failed_auths[key] = recent
            else:
                del self._failed_auths[key]
        self._failed_prune_countdown = _FAILED_AUTH_PRUNE_EVERY

    def _clear_failed_auths(self, key: tuple[str, str]) -> None:
        """A successful authentication resets the key's lockout budget."""
        with self._failed_lock:
            self._failed_auths.pop(key, None)

    def _verify_secret(self, entry: RepositoryEntry, request: Request) -> RepositoryEntry:
        """Authenticate a request against an entry's stored secret state.

        Returns the (possibly advanced) entry — OTP verification consumes a
        chain step, which is persisted *before* any credential leaves the
        server, so a failed delegation cannot be replayed.

        Failed checks feed the online-guessing lockout; once tripped, even
        the correct secret is refused until the window drains (the §5.1
        "allows time for intrusion to be detected" property, automated).
        """
        key = (entry.username, entry.cred_name)
        self._check_lockout(key)
        try:
            with self._observe_phase("verify_secret"):
                verified = self._verify_secret_inner(entry, request)
        except AuthenticationError:
            self._record_failed_auth(key)
            raise
        self._clear_failed_auths(key)
        return verified

    def _verify_secret_inner(
        self, entry: RepositoryEntry, request: Request
    ) -> RepositoryEntry:
        method = entry.auth_method
        if request.auth_method.value != method:
            raise AuthenticationError(
                f"entry uses {method} authentication, request used "
                f"{request.auth_method.value}"
            )
        if method == AuthMethod.PASSPHRASE.value:
            if not self.policy.allow_passphrase_auth:
                raise AuthenticationError("pass-phrase authentication is disabled")
            if not check_passphrase(entry.verifier, request.passphrase):
                raise AuthenticationError("wrong pass phrase")
            return entry
        if method == AuthMethod.OTP.value:
            if not self.policy.allow_otp_auth:
                raise AuthenticationError("one-time-password authentication is disabled")
            with self._otp_lock:
                # Re-read under the lock: verify-and-advance must be atomic
                # or a raced word could be spent twice.
                entry = self.repository.get(entry.username, entry.cred_name)
                state = OTPVerifier.from_payload(entry.verifier.get("otp", {}))
                advanced = state.verify(request.passphrase)
                updated = entry.with_verifier(
                    {"method": "otp", "otp": advanced.to_payload()}
                )
                self.repository.put(updated)
            return updated
        if method == AuthMethod.SITE.value:
            if not self.policy.allow_site_auth:
                raise AuthenticationError("site authentication is disabled")
            realm = str(entry.verifier.get("realm", ""))
            secret = self.site_secrets.get(realm)
            if secret is None:
                raise AuthenticationError(f"no shared secret for realm {realm!r}")
            verify_ticket(
                request.passphrase,
                entry.username,
                secret,
                clock=self.clock,
                expected_realm=realm,
            )
            return entry
        raise AuthenticationError(f"unknown authentication method {method!r}")

    def _initial_verifier(self, request: Request) -> tuple[dict, str]:
        """Build verifier metadata + key-encryption mode from a PUT/STORE."""
        if request.auth_method is AuthMethod.PASSPHRASE:
            self.policy.passphrase_policy.check(request.passphrase)
            return (
                make_passphrase_verifier(
                    request.passphrase, self.policy.kdf_iterations
                ),
                KEY_ENC_PASSPHRASE,
            )
        if request.auth_method is AuthMethod.OTP:
            try:
                payload = json.loads(request.passphrase)
                state = OTPVerifier.from_payload(payload)
            except (json.JSONDecodeError, AuthenticationError) as exc:
                raise PolicyError(f"bad OTP initialization: {exc}") from exc
            if state.counter < 2:
                raise PolicyError("OTP chain too short to be useful")
            return ({"method": "otp", "otp": state.to_payload()}, KEY_ENC_SERVER)
        if request.auth_method is AuthMethod.SITE:
            realm = request.passphrase
            if realm not in self.site_secrets:
                raise PolicyError(f"repository has no trust for site realm {realm!r}")
            return ({"method": "site", "realm": realm}, KEY_ENC_SERVER)
        raise PolicyError(f"unsupported auth method {request.auth_method}")

    def _decrypt_entry_key(self, entry: RepositoryEntry, request: Request) -> KeyPair:
        """Recover the stored private key for delegation."""
        if entry.key_encryption == KEY_ENC_PASSPHRASE:
            if entry.long_term:
                # Long-term entries keep the user's original PEM blob
                # (certificates + encrypted key) verbatim.
                return Credential.import_pem(
                    entry.key_pem, request.passphrase
                ).require_key()
            return KeyPair.from_pem(entry.key_pem, request.passphrase)
        if entry.key_encryption == KEY_ENC_SERVER:
            return KeyPair.from_pem(self.master_box.open(entry.key_pem))
        raise CredentialError(f"unknown key encryption {entry.key_encryption!r}")

    def _load_entry_credential(
        self, entry: RepositoryEntry, key: KeyPair
    ) -> Credential:
        from repro.pki.certs import Certificate

        certs = Certificate.list_from_pem(entry.certificate_pem)
        return Credential(certificate=certs[0], key=key, chain=tuple(certs[1:]))

    # ------------------------------------------------------------------
    # PUT — Figure 1, myproxy-init
    # ------------------------------------------------------------------

    def _do_put(
        self, channel: SecureChannel, peer: ValidatedIdentity, request: Request
    ) -> None:
        self._require_acl(self.policy.accepted_credentials, peer)
        self.policy.passphrase_policy.check_username(request.username)
        lifetime = request.lifetime or self.policy.max_stored_lifetime
        self.policy.check_stored_lifetime(lifetime)
        verifier, key_encryption = self._initial_verifier(request)

        channel.send(Response.success({"accepted": True}).encode())
        with self._observe_phase("delegation"):
            delegated = accept_delegation(
                channel, key_source=self.key_source, clock=self.clock
            )

        # Post-delegation validation, answered by the commit response.
        try:
            if delegated.identity != peer.identity:
                raise PolicyError(
                    "delegated credential does not belong to the authenticated "
                    f"client ({delegated.identity} vs {peer.identity})"
                )
            self.validator.validate(delegated.full_chain())
            now = self.clock.now()
            slack = 120.0
            if delegated.certificate.not_after > now + self.policy.max_stored_lifetime + slack:
                raise PolicyError(
                    "delegated credential outlives the server's stored-lifetime policy"
                )
            max_get = request.max_get_lifetime
            if max_get is None or max_get <= 0:
                max_get = self.policy.max_delegation_lifetime
            key_pem: bytes
            if key_encryption == KEY_ENC_PASSPHRASE:
                key_pem = delegated.require_key().to_pem(request.passphrase)
            else:
                key_pem = self.master_box.seal(delegated.require_key().to_pem())
            # §6.6: enabling renewal requires a server-openable key copy —
            # the renewer presents no secret (the real MyProxy documents
            # the same weakening for renewable credentials).
            key_pem_renewal = None
            if request.renewers is not None:
                if not self.policy.allow_renewal_auth:
                    raise PolicyError("this repository does not allow renewal")
                key_pem_renewal = self.master_box.seal(
                    delegated.require_key().to_pem()
                )
            cert_pem = b"".join(c.to_pem() for c in delegated.full_chain())
            entry = RepositoryEntry(
                username=request.username,
                cred_name=request.cred_name,
                owner_dn=str(peer.identity),
                certificate_pem=cert_pem,
                key_pem=key_pem,
                key_encryption=key_encryption,
                verifier=verifier,
                max_get_lifetime=max_get,
                retrievers=request.retrievers,
                created_at=now,
                not_after=delegated.certificate.not_after,
                long_term=False,
                renewers=request.renewers,
                key_pem_renewal=key_pem_renewal,
            )
            self.repository.put(entry)
        except (ServerBusyError, RepositoryError):
            # Let the dispatcher answer: the busy protocol for a lapsed
            # lease, the generic storage reply for repository trouble —
            # the storage layer's message must not reach the wire verbatim.
            raise
        except ReproError as exc:
            self._audit_event(
                str(peer.identity), "PUT", request.username, request.cred_name, False, str(exc)
            )
            channel.send(Response.failure(str(exc)).encode())
            return
        self.stats.inc("puts")
        self._audit_event(
            str(peer.identity), "PUT", request.username, request.cred_name, True,
            f"stored until {entry.not_after:.0f}",
        )
        channel.send(
            Response.success(
                {"stored": True, "not_after": entry.not_after, "cred_name": entry.cred_name}
            ).encode()
        )

    # ------------------------------------------------------------------
    # GET — Figure 2, myproxy-get-delegation
    # ------------------------------------------------------------------

    def _verify_renewal(
        self, entry: RepositoryEntry, peer: ValidatedIdentity
    ) -> KeyPair:
        """§6.6 renewal-by-possession: authorize and unseal the key.

        The requester authenticated the *channel* with a live proxy; the
        handshake's possession proof is the renewal credential.  We require
        that proxy to name the same identity that owns the stored entry,
        plus the server-wide and per-credential renewer ACLs.
        """
        if not self.policy.allow_renewal_auth:
            raise AuthenticationError("renewal authentication is disabled")
        if not self.policy.authorized_renewers.allows(peer.identity):
            raise AuthorizationError(
                f"{peer.identity} is not on the authorized_renewers list"
            )
        if entry.renewers is None or entry.key_pem_renewal is None:
            raise AuthorizationError("this credential was not stored as renewable")
        per_cred = AccessControlList(entry.renewers, name="credential renewers")
        if not per_cred.allows(peer.identity):
            raise AuthorizationError(
                f"{peer.identity} is not among this credential's allowed renewers"
            )
        if str(peer.identity) != entry.owner_dn:
            raise AuthorizationError(
                "renewal requires a live credential for the same identity "
                f"({peer.identity} vs {entry.owner_dn})"
            )
        return KeyPair.from_pem(self.master_box.open(entry.key_pem_renewal))

    def _do_get(
        self, channel: SecureChannel, peer: ValidatedIdentity, request: Request
    ) -> None:
        self._require_acl(self.policy.authorized_retrievers, peer)
        self._serve_one_get(channel, peer, request)

    def _serve_one_get(
        self, channel: SecureChannel, peer: ValidatedIdentity, request: Request
    ) -> None:
        """Authenticate, answer and delegate one GET item (ACL pre-checked)."""
        entry = self.repository.get(request.username, request.cred_name)

        if request.auth_method is AuthMethod.RENEWAL:
            key = self._verify_renewal(entry, peer)
        else:
            entry = self._verify_secret(entry, request)
            if entry.retrievers is not None:
                per_cred = AccessControlList(
                    entry.retrievers, name="credential retrievers"
                )
                if not per_cred.allows(peer.identity):
                    raise AuthorizationError(
                        f"{peer.identity} is not among this credential's "
                        "allowed retrievers"
                    )
            key = None  # decrypted below, after the expiry check

        now = self.clock.now()
        if entry.not_after <= now:
            raise AuthenticationError("stored credential has expired")

        lifetime = self.policy.clamp_delegation_lifetime(request.lifetime)
        lifetime = min(lifetime, entry.max_get_lifetime, entry.not_after - now)

        if key is None:
            key = self._decrypt_entry_key(entry, request)
        stored = self._load_entry_credential(entry, key)

        channel.send(
            Response.success({"granted_lifetime": lifetime, "cred_name": entry.cred_name}).encode()
        )
        with self._observe_phase("delegation"):
            issued = delegate_credential(
                channel, stored, lifetime=lifetime, clock=self.clock
            )
        self.stats.inc("gets")
        self._audit_event(
            str(peer.identity), "GET", request.username, request.cred_name, True,
            f"delegated until {issued.not_after:.0f} "
            f"(auth={request.auth_method.value})",
        )

    def _do_get_multi(
        self, channel: SecureChannel, peer: ValidatedIdentity, request: Request
    ) -> None:
        """Batched GET: many delegations over one handshake (one RTT of
        asymmetric crypto amortized across the batch — the portal shape
        of §3, where one web server fetches proxies for many users).

        One failing item does not abort the batch: each item gets its own
        Response (and, on success, its own delegation), so the client can
        pair outcomes positionally.  Authorization uses the same ACL and
        per-item secret checks as single GET — batching changes framing,
        never trust decisions.
        """
        self._require_acl(self.policy.authorized_retrievers, peer)
        items = request.batch or ()
        channel.send(Response.success({"accepted": True, "count": len(items)}).encode())
        for item in items:
            sub = Request(
                command=Command.GET,
                username=item.username,
                passphrase=item.passphrase,
                lifetime=item.lifetime,
                cred_name=item.cred_name,
                auth_method=item.auth_method,
            )
            try:
                self._serve_one_get(channel, peer, sub)
            except (AuthenticationError, AuthorizationError, NotFoundError) as exc:
                self._audit_event(
                    str(peer.identity), "GET_MULTI", item.username,
                    item.cred_name, False, str(exc),
                )
                channel.send(Response.failure(_GENERIC_DENIAL).encode())
            except (PolicyError, CredentialError) as exc:
                self._audit_event(
                    str(peer.identity), "GET_MULTI", item.username,
                    item.cred_name, False, str(exc),
                )
                channel.send(Response.failure(str(exc)).encode())
            except RepositoryError as exc:
                self._audit_event(
                    str(peer.identity), "GET_MULTI", item.username,
                    item.cred_name, False, f"repository error: {exc}",
                )
                channel.send(
                    Response.failure("temporary repository error; retry").encode()
                )

    # ------------------------------------------------------------------
    # INFO / DESTROY / CHANGE_PASSPHRASE
    # ------------------------------------------------------------------

    def _owned_entries(
        self, peer: ValidatedIdentity, username: str
    ) -> list[RepositoryEntry]:
        entries = [
            e
            for e in self.repository.list_for(username)
            if e.owner_dn == str(peer.identity)
        ]
        if not entries:
            raise AuthorizationError(
                f"{peer.identity} owns no credentials stored under {username!r}"
            )
        return entries

    def _do_info(
        self, channel: SecureChannel, peer: ValidatedIdentity, request: Request
    ) -> None:
        self._require_acl(self.policy.accepted_credentials, peer)
        entries = self._owned_entries(peer, request.username)
        now = self.clock.now()
        info = {
            "username": request.username,
            "credentials": [
                {
                    "cred_name": e.cred_name,
                    "owner": e.owner_dn,
                    "not_after": e.not_after,
                    "seconds_remaining": max(e.not_after - now, 0.0),
                    "max_get_lifetime": e.max_get_lifetime,
                    "auth_method": e.auth_method,
                    "long_term": e.long_term,
                    "retrievers": list(e.retrievers) if e.retrievers is not None else None,
                }
                for e in entries
            ],
        }
        self._audit_event(
            str(peer.identity), "INFO", request.username, "", True, f"{len(entries)} entries"
        )
        channel.send(Response.success(info).encode())

    def _do_destroy(
        self, channel: SecureChannel, peer: ValidatedIdentity, request: Request
    ) -> None:
        self._require_acl(self.policy.accepted_credentials, peer)
        entry = self.repository.get(request.username, request.cred_name)
        if entry.owner_dn != str(peer.identity):
            raise AuthorizationError(
                f"{peer.identity} does not own {request.username}/{request.cred_name}"
            )
        self.repository.delete(request.username, request.cred_name)
        self._audit_event(
            str(peer.identity), "DESTROY", request.username, request.cred_name, True, "destroyed"
        )
        channel.send(Response.success({"destroyed": True}).encode())

    def _do_change_passphrase(
        self, channel: SecureChannel, peer: ValidatedIdentity, request: Request
    ) -> None:
        self._require_acl(self.policy.accepted_credentials, peer)
        entry = self.repository.get(request.username, request.cred_name)
        if entry.owner_dn != str(peer.identity):
            raise AuthorizationError(
                f"{peer.identity} does not own {request.username}/{request.cred_name}"
            )
        if entry.auth_method != AuthMethod.PASSPHRASE.value:
            raise PolicyError("only pass-phrase entries support CHANGE_PASSPHRASE")
        entry = self._verify_secret(entry, request)
        self.policy.passphrase_policy.check(request.new_passphrase)
        if entry.key_encryption == KEY_ENC_PASSPHRASE:
            key = KeyPair.from_pem(entry.key_pem, request.passphrase)
            new_key_pem = key.to_pem(request.new_passphrase)
        else:  # pragma: no cover - passphrase entries are passphrase-encrypted
            new_key_pem = entry.key_pem
        updated = replace(
            entry,
            key_pem=new_key_pem,
            verifier=make_passphrase_verifier(
                request.new_passphrase, self.policy.kdf_iterations
            ),
        )
        self.repository.put(updated)
        self._audit_event(
            str(peer.identity), "CHANGE_PASSPHRASE", request.username, request.cred_name,
            True, "pass phrase changed",
        )
        channel.send(Response.success({"changed": True}).encode())

    # ------------------------------------------------------------------
    # TRUSTROOTS — anchor + CRL distribution (myproxy-get-trustroots)
    # ------------------------------------------------------------------

    def _do_trustroots(
        self, channel: SecureChannel, peer: ValidatedIdentity | None, request: Request
    ) -> None:
        """Return this repository's trust fabric: CA certs and fresh CRLs.

        All public material — clients use it to bootstrap a trust
        directory or, routinely, to refresh revocation lists.
        """
        info = {
            "cas": [a.to_pem().decode("ascii") for a in self.validator.anchors],
            "crls": [crl.to_json() for crl in self.validator.crls],
        }
        peer_name = str(peer.identity) if peer is not None else "<anonymous>"
        self._audit_event(
            peer_name, "TRUSTROOTS", request.username, "", True,
            f"{len(info['cas'])} CAs, {len(info['crls'])} CRLs",
        )
        channel.send(Response.success(info).encode())

    # ------------------------------------------------------------------
    # STORE / RETRIEVE — §6.1 managed long-term credentials
    # ------------------------------------------------------------------

    def _do_store(
        self, channel: SecureChannel, peer: ValidatedIdentity, request: Request
    ) -> None:
        self._require_acl(self.policy.accepted_credentials, peer)
        self.policy.passphrase_policy.check_username(request.username)
        if request.auth_method is not AuthMethod.PASSPHRASE:
            raise PolicyError("STORE requires pass-phrase protection of the key")
        if request.renewers is not None:
            # STORE's guarantee is that the plaintext long-term key never
            # exists server-side; a renewal copy would break it.
            raise PolicyError(
                "long-term entries cannot be renewable; use PUT for that"
            )
        verifier, _mode = self._initial_verifier(request)

        channel.send(Response.success({"accepted": True}).encode())
        blob = channel.recv()

        try:
            # The key inside the blob stays encrypted under the user's pass
            # phrase end to end: the server verifies it can decrypt (to
            # reject typos) but persists the encrypted form it received.
            credential = Credential.import_pem(blob, request.passphrase)
            if credential.key is None:
                raise CredentialError("STORE payload has no private key")
            if credential.identity != peer.identity:
                raise PolicyError("may only store your own long-term credential")
            self.validator.validate(credential.full_chain())
            from repro.pki.certs import Certificate

            certs = Certificate.list_from_pem(blob)
            cert_pem = b"".join(c.to_pem() for c in certs)
            entry = RepositoryEntry(
                username=request.username,
                cred_name=request.cred_name,
                owner_dn=str(peer.identity),
                certificate_pem=cert_pem,
                key_pem=blob,  # original PEM, key still pass-phrase-encrypted
                key_encryption=KEY_ENC_PASSPHRASE,
                verifier=verifier,
                max_get_lifetime=request.max_get_lifetime
                or self.policy.max_delegation_lifetime,
                retrievers=request.retrievers,
                created_at=self.clock.now(),
                not_after=credential.certificate.not_after,
                long_term=True,
            )
            self.repository.put(entry)
        except (ServerBusyError, RepositoryError):
            # Same contract as PUT: busy protocol / generic storage reply
            # come from the dispatcher, not this handler.
            raise
        except ReproError as exc:
            self._audit_event(
                str(peer.identity), "STORE", request.username, request.cred_name, False, str(exc)
            )
            channel.send(Response.failure(str(exc)).encode())
            return
        self.stats.inc("stores")
        self._audit_event(
            str(peer.identity), "STORE", request.username, request.cred_name, True,
            "long-term credential stored",
        )
        channel.send(Response.success({"stored": True, "long_term": True}).encode())

    def _do_retrieve(
        self, channel: SecureChannel, peer: ValidatedIdentity, request: Request
    ) -> None:
        self._require_acl(self.policy.authorized_retrievers, peer)
        entry = self.repository.get(request.username, request.cred_name)
        if not entry.long_term:
            raise AuthorizationError("RETRIEVE is only allowed for long-term entries")
        entry = self._verify_secret(entry, request)
        if entry.retrievers is not None:
            per_cred = AccessControlList(entry.retrievers, name="credential retrievers")
            if not per_cred.allows(peer.identity):
                raise AuthorizationError(
                    f"{peer.identity} is not among this credential's allowed retrievers"
                )
        channel.send(Response.success({"long_term": True}).encode())
        channel.send(entry.key_pem)  # the original pass-phrase-encrypted PEM
        self.stats.inc("retrieves")
        self._audit_event(
            str(peer.identity), "RETRIEVE", request.username, request.cred_name, True,
            "long-term credential returned (key still encrypted)",
        )
