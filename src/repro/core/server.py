"""The MyProxy repository server (§4, §5.1).

Each conversation follows the original:

1. mutual GSI authentication (the client sees the repository's certificate,
   so "an attacker [cannot impersonate] the repository in order to steal
   credentials"; the repository authenticates the client for its ACLs);
2. one :class:`~repro.core.protocol.Request`;
3. a :class:`~repro.core.protocol.Response`;
4. for PUT/GET/STORE/RETRIEVE, the credential transfer on the same channel
   (GSI delegation for PUT, the Issue answering a GET's CSR — private keys
   never travel; an encrypted PEM blob for the §6.1 STORE/RETRIEVE of
   long-term credentials);
5. for PUT/STORE, a final *commit* response after the server has validated
   and persisted what it received.

Each command handler returns the frames of its reply's last flight, and
:meth:`MyProxyServer.answer` sends them in one write once the request is
audited, counted and timed: a client never holds what the audit trail and
metrics do not yet show.  Only PUT and STORE write mid-command (their
``accepted`` response, before the client's upload).

After a successful command the channel may carry the next request, with
step 1 replaced by a re-check of the peer's trust (PROTOCOL.md §6); an
idle channel waits in the listener's selector, not on a worker.

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

Every command's transport-neutral steps live here, once, as public
methods — :meth:`MyProxyServer.admit`, :meth:`~MyProxyServer.refuse`,
:meth:`~MyProxyServer.get`,
:meth:`~MyProxyServer.check_put` / :meth:`~MyProxyServer.store_delegation`,
:meth:`~MyProxyServer.info`, :meth:`~MyProxyServer.destroy` and
:meth:`~MyProxyServer.change_passphrase`.  The GSI dispatcher below and
the §6.4 HTTP/CDP gateway (:mod:`repro.core.httpbinding`) are codecs over
them: each decodes its request, runs PUT's key exchange, and encodes the
reply.  A GET on either binding is one call of :meth:`~MyProxyServer.get`,
which checks the CSR under the binding's PoP label and issues through
:func:`~repro.transport.delegation.issue`.  Both are
also *bindings* of one connection path (:meth:`MyProxyServer.listen`):
the same handshake, per-request trust re-check, admission, parking and
idle timeout serve either protocol's connections.
"""

from __future__ import annotations

import json
import os
import sys
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
from repro.core.protocol import (
    AuthMethod, Command, Reply, Request, Response, StoredCredentialInfo,
)
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
from repro.pki.certs import Certificate
from repro.pki.credentials import Credential
from repro.pki.keys import KeyPair, KeySource, OneShotKeyPool
from repro.pki.proxy import issuance_bound
from repro.pki.validation import ChainValidator, ValidatedIdentity
from repro.qos import ClassMap, RateLimiter
from repro.transport.channel import SecureChannel, accept_secure
from repro.transport.delegation import (
    CSR_POP_LABEL,
    accept_delegation,
    check_csr,
    issue,
    issue_message,
)
from repro.transport.tickets import SessionTicketManager
from repro.transport.links import Link
from repro.transport.listener import WORKERS, Binding, Listener
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import (
    AuthenticationError,
    AuthorizationError,
    ConfigError,
    CredentialError,
    NotFoundError,
    PolicyError,
    ProtocolError,
    RepositoryError,
    ReproError,
    ServerBusyError,
)
from repro.util.logging import get_logger

_GENERIC_DENIAL = "remote authorization/authentication failed"

#: The exceptions a command step raises to refuse a request; anything else
#: is a transport failure or a bug, and propagates.
REFUSABLE = (
    AuthenticationError,
    AuthorizationError,
    PolicyError,
    CredentialError,
    ProtocolError,
    ServerBusyError,
    RepositoryError,
)


@dataclass(frozen=True, slots=True)
class Refusal:
    """A refused request, already audited and counted by
    :meth:`MyProxyServer.refuse`; each binding only renders it.

    ``kind`` is one of ``"denied"`` (the uniform denial — no user-name
    oracle), ``"rejected"`` (a precise policy/credential/protocol message
    the client can act on), ``"busy"`` (come back after ``retry_after``
    seconds) or ``"storage"`` (a generic retry message; the real cause is
    only in the audit trail).
    """

    kind: str
    message: str
    retry_after: float = 0.0

    def response(self) -> Response:
        """The GSI rendering."""
        if self.kind == "busy":
            return Response.busy_reply(self.retry_after)
        return Response.failure(self.message)


#: Every this-many recorded failures, sweep *all* lockout windows for
#: stale entries — without it, a username/cred-name scan grows
#: ``_failed_auths`` forever (only re-checked keys used to be pruned).
_FAILED_AUTH_PRUNE_EVERY = 256

#: The pre-handshake per-address bucket is this many times looser than the
#: heaviest per-identity bucket: one portal address multiplexes many users,
#: so the address brake exists to stop floods, not to enforce fairness
#: (that happens post-handshake, once the DN is known).
_ANON_FANIN = 4.0

#: Worker pool size: conversations served at once (``--max-connections``).
DEFAULT_MAX_CONNECTIONS = WORKERS

logger = get_logger("core.server")


@dataclass(frozen=True, slots=True)
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


def _peer_name(peer: ValidatedIdentity | None) -> str:
    return str(peer.identity) if peer is not None else "<anonymous>"


def _ok(reply: Reply, **values) -> bytes:
    """An OK response carrying ``reply``'s ``INFO`` document."""
    return Response.success(reply.write(**values)).encode()


class MyProxyServer(Binding):
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
        max_concurrent_connections: int = DEFAULT_MAX_CONNECTIONS,
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
        self._listener: Listener | None = None
        self._listener_lock = threading.Lock()  # clients may dial at once
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
        self._kept_turns_total = self.metrics.counter(
            "myproxy_kept_turns_total",
            "Requests on kept channels, by how they reached a worker: served "
            "in the window after the last reply, or offered after a park.",
            labelnames=("path",),
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
        """Listen for GSI connections on TCP and serve until :meth:`stop`.
        Returns the endpoint."""
        self._endpoint = self.listen(host, port, self)
        return self._endpoint

    def listen(self, host: str, port: int, binding: Binding) -> tuple[str, int]:
        """Accept ``binding``'s connections (GSI, or an HTTP gateway's) on
        ``host:port`` with this server's one listener."""
        return self._serving().listen(
            host, port, binding, backlog=self.policy.listen_backlog
        )

    def connect(self, binding: Binding | None = None) -> Link:
        """Dial ``binding`` (by default, GSI) in process: a link factory."""
        return self._serving().connect(binding or self)

    def _serving(self) -> Listener:
        """This server's one listener, whose hooks carry its policy: the
        flood brake, shed counters and audit records."""
        with self._listener_lock:
            if self._listener is None:
                self._listener = Listener(
                    "myproxy",
                    workers=self.max_concurrent_connections,
                    timeout=self.policy.connection_timeout,
                    queue_depth=self.policy.qos_queue_depth,
                    queue_deadline=self.policy.qos_queue_deadline,
                    admit=self._flood_brake(),
                    on_shed=self._count_shed,
                    on_wait=self._admission_wait_seconds.observe,
                    depth_gauge=self._qos_queue_depth,
                    inflight=self._qos_inflight,
                    kept_turns=self._kept_turns_total,
                )
            return self._listener

    def _flood_brake(self):
        """Pre-handshake flood brake: per peer address, deliberately loose
        (_ANON_FANIN × the heaviest class) because the DN is not known
        yet — fairness proper happens post-handshake in :meth:`admit`."""
        if self.policy.qos_rate <= 0:
            return lambda address: 0.0
        heaviest = self._class_map.max_weight()
        rate = self.policy.qos_rate * heaviest * _ANON_FANIN
        burst = self.policy.effective_qos_burst() * heaviest * _ANON_FANIN
        return lambda address: self._anon_limiter.check(address, rate, burst)

    def _count_shed(self, peer: str, reason: str, retry_after: float) -> None:
        """The listener's ``on_shed``: every shed is counted (the aggregate
        plus a by-reason counter) and audited, but not as a denial."""
        self.stats.inc("shed")
        self._shed_reason_total.labels(reason=reason).inc()
        self.audit(
            peer, "ADMISSION", "", "", False,
            f"shed ({reason}); retry in {retry_after:.3f}s",
            count_denial=False,
        )

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
        # Drain in-flight conversations (bounded): tests and benchmarks
        # must not leak worker threads or half-open sockets past stop().
        if self._listener is not None:
            self._listener.stop(drain_timeout)
            self._listener = None
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

    def audit(
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
        """Append one record to the audit trail; a refusal also counts
        under ``denials`` unless ``count_denial`` is false."""
        # count_denial=False is for QoS sheds: they are audited like any
        # refusal but counted under ``shed``, not ``denials`` — denials
        # measure authorization decisions, sheds measure load.  The
        # identifying fields repeat across the bounded ring, so they are
        # interned: one string object per distinct value, not per record.
        record = AuditRecord(
            at=self.clock.now(),
            peer=sys.intern(peer),
            command=sys.intern(command),
            username=sys.intern(username),
            cred_name=sys.intern(cred_name),
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
        map (thread-local, reset by :meth:`open` and :meth:`resume`) so a
        slow-op record can show where a slow conversation spent its time.
        """
        timer = self._phase_seconds.labels(phase=phase).time()
        try:
            with timer:
                yield timer
        finally:
            phases = getattr(self._phase_local, "phases", None)
            if phases is not None:
                phases[phase] = phases.get(phase, 0.0) + timer.elapsed

    def admit(self, peer: ValidatedIdentity | None) -> float:
        """Per-identity fairness, applied once a handshake names the peer.

        Returns 0 when admitted, else the seconds the peer should wait.
        The authenticated base identity resolves to its service class;
        rate and burst scale with the class weight, so a portal's shared
        DN gets proportionally more admission budget than one interactive
        user (§3's many-users-behind-one-portal shape).  A refusal bills
        the noisy identity's bucket alone, and is counted and audited as
        a shed, not a denial.  Both bindings admit each request.
        """
        if peer is None:
            # Anonymous TRUSTROOTS channels have no DN to bill; in TCP
            # mode they already passed the per-address flood brake.
            self._qos_admitted_total.labels(qclass="anonymous").inc()
            return 0.0
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
                self.audit(
                    str(peer.identity), "ADMISSION", "", "", False,
                    f"rate limited (class {qclass.name}); "
                    f"retry in {retry:.3f}s",
                    count_denial=False,
                )
                return retry
        self._qos_admitted_total.labels(qclass=qclass.name).inc()
        return 0.0

    def refuse(
        self,
        exc: Exception,
        peer: str,
        command: str,
        username: str = "",
        cred_name: str = "",
    ) -> Refusal:
        """Classify one of :data:`REFUSABLE`, audit it and count it once.

        The one place a refusal is decided, for every binding.  Storage
        trouble (I/O error, quarantined entry, failed replication quorum)
        is audited with its real cause but answered generically — a client
        must not learn spool internals.  A lapsed cluster lease answers
        busy, so clients back off and retry here rather than failing over
        to a node that cannot be fresher.
        """
        if isinstance(exc, (AuthenticationError, AuthorizationError, NotFoundError)):
            refusal, detail = Refusal("denied", _GENERIC_DENIAL), str(exc)
        elif isinstance(exc, ServerBusyError):
            self.stats.inc("lease_denied_writes")
            refusal = Refusal("busy", "busy", exc.retry_after)
            detail = f"write refused, primary lease lapsed: {exc}"
        elif isinstance(exc, RepositoryError):
            refusal = Refusal("storage", "temporary repository error; retry")
            detail = f"repository error: {exc}"
        else:
            refusal, detail = Refusal("rejected", str(exc)), str(exc)
        self.audit(peer, command, username, cred_name, False, detail)
        return refusal

    # ------------------------------------------------------------------
    # the GSI binding (see listen and repro.transport.listener.Binding)
    # ------------------------------------------------------------------

    def open(
        self, link: Link, *, allow_anonymous: bool | None = None
    ) -> SecureChannel | None:
        """The handshake, for either binding: the channel, or None once a
        failure has been counted and audited.  Anonymous peers may connect
        (for TRUSTROOTS only) if policy allows, unless ``allow_anonymous``
        says otherwise."""
        self.stats.inc("connections")
        self._phase_local.phases = {}
        if allow_anonymous is None:
            allow_anonymous = self.policy.allow_anonymous_trustroots
        try:
            with self._observe_phase("handshake"):
                channel = accept_secure(
                    link,
                    self.credential,
                    self.validator,
                    allow_anonymous=allow_anonymous,
                    ticket_manager=self.ticket_manager,
                )
        except ReproError as exc:
            self.stats.inc("handshake_failures")
            self.audit("<unauthenticated>", "handshake", "", "", False, str(exc))
            return None
        if channel.resumed:
            outcome = "hit"
        elif channel.ticket_presented:
            outcome = "miss"
        else:
            outcome = "none"
        self._resumption_total.labels(outcome=outcome).inc()
        return channel

    def resume(self, channel: SecureChannel) -> bool:
        """Before a kept channel's next request (either binding): re-check
        trust exactly as a ticket redemption would (DESIGN §6.5), so a
        change that landed while the channel idled is seen; a peer that
        fails gets a close alert and its request is not acted on."""
        self._phase_local.phases = {}
        return channel.still_trusted(self.validator)

    def failed(self, channel: SecureChannel, exc: ReproError) -> None:
        """A transport or protocol error ended a conversation: audited."""
        self.audit(_peer_name(channel.peer), "conversation", "", "", False, str(exc))

    def busy_reply(self, retry_after: float) -> bytes:
        return Response.busy_reply(retry_after).encode()

    def answer(self, channel: SecureChannel, message: bytes) -> bool:
        """Admit and serve one request; True when the channel may carry
        another.

        The one place a command's reply is sent: its last flight leaves
        in one write, after the request's records — audit, counters, the
        latency sample and the slow-op record — are committed, so what a
        client has seen the operator can already see.  Only a successful
        command from an authenticated peer keeps the channel.  A refusal,
        a busy reply or a protocol error ends it with a close alert after
        the reply.
        """
        flight, kept = self._serve(channel, message)
        channel.send_many(flight)
        return kept

    def _serve(
        self, channel: SecureChannel, message: bytes
    ) -> tuple[list[bytes], bool]:
        """Serve one request up to its reply: the frames of its last
        flight, and whether the channel is kept."""
        peer = channel.peer
        retry = self.admit(peer)
        if retry > 0:
            return [self.busy_reply(retry)], False
        peer_name = _peer_name(peer)
        try:
            request = Request.decode(message)
        except ProtocolError as exc:
            command, username, cred_name = Request.named(message)
            refusal = self.refuse(
                exc, peer_name, command or "conversation", username, cred_name
            )
            return [Response.failure(f"bad request: {refusal.message}").encode()], False
        if peer is None and request.command is not Command.TRUSTROOTS:
            # Anonymous channels exist only for public trust material.
            refusal = self.refuse(
                AuthorizationError("anonymous client"), peer_name,
                request.command.name, request.username, request.cred_name,
            )
            return [refusal.response().encode()], False
        handler = {
            Command.PUT: self._do_put,
            Command.GET: self._do_get,
            Command.INFO: self._answered(self.info, Reply.LISTING),
            Command.DESTROY: self._answered(self.destroy, Reply.DESTROYED),
            Command.CHANGE_PASSPHRASE: self._answered(self.change_passphrase, Reply.CHANGED),
            Command.STORE: self._do_store,
            Command.RETRIEVE: self._do_retrieve,
            Command.TRUSTROOTS: self._answered(self.trustroots, Reply.TRUSTROOTS),
            Command.GET_MULTI: self._do_get_multi,
        }[request.command]
        started = time.perf_counter()
        try:
            flight, served = handler(channel, peer, request)
        except REFUSABLE as exc:
            refusal = self.refuse(
                exc, peer_name, request.command.name, request.username,
                request.cred_name,
            )
            flight, served = [refusal.response().encode()], False
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
        return flight, served and peer is not None

    # ------------------------------------------------------------------
    # shared checks
    # ------------------------------------------------------------------

    def require_acl(self, acl: AccessControlList, peer: ValidatedIdentity) -> None:
        """Refuse ``peer`` unless ``acl`` (one of the policy's lists) allows it."""
        if not acl.allows(peer.identity):
            raise AuthorizationError(
                f"{peer.identity} is not on the {acl.name} list"
            )

    @staticmethod
    def _require_listed(
        globs: tuple[str, ...] | None, peer: ValidatedIdentity, what: str
    ) -> None:
        """A per-credential DN-glob restriction (§4.1 retrievers, §6.6
        renewers); ``None`` means unrestricted.  A stored list the ACL
        cannot parse allows no one."""
        if globs is None:
            return
        try:
            allowed = AccessControlList(globs).allows(peer.identity)
        except ConfigError as exc:
            raise AuthorizationError(f"credential {what} unusable: {exc}") from exc
        if not allowed:
            raise AuthorizationError(
                f"{peer.identity} is not among this credential's allowed {what}"
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

    def _decrypt_entry_key(
        self,
        entry: RepositoryEntry,
        passphrase: str | None = None,
        *,
        renewal: bool = False,
    ) -> KeyPair:
        """Open a stored private key — the only place the server does.

        Loads skip OpenSSL's RSA consistency re-check (``trusted=True``):
        every stored key was generated server-side (PUT, HTTP PUT, CDP) or
        validated by :meth:`Credential.import_pem` before the commit
        (STORE), replicas and snapshots come HMAC'd from peers that did the
        same, and ``%MPF1`` CRC framing guards the bytes at rest.  Nothing
        decrypted here is cached: the key lives for one request.
        """
        if renewal:
            pem, passphrase = self.master_box.open(entry.key_pem_renewal), None
        elif entry.key_encryption == KEY_ENC_SERVER:
            pem, passphrase = self.master_box.open(entry.key_pem), None
        elif entry.key_encryption == KEY_ENC_PASSPHRASE:
            pem = entry.key_pem
            if entry.long_term:
                # Long-term entries keep the user's original PEM blob
                # (certificates + encrypted key) verbatim.
                return Credential.import_pem(
                    pem, passphrase, trusted=True
                ).require_key()
        else:
            raise CredentialError(f"unknown key encryption {entry.key_encryption!r}")
        return KeyPair.from_pem(pem, passphrase, trusted=True)

    def _load_entry_credential(
        self, entry: RepositoryEntry, key: KeyPair
    ) -> Credential:
        certs = Certificate.list_from_pem(entry.certificate_pem)
        return Credential(certificate=certs[0], key=key, chain=tuple(certs[1:]))

    # ------------------------------------------------------------------
    # PUT — Figure 1, myproxy-init
    # ------------------------------------------------------------------

    def check_put(
        self, peer: ValidatedIdentity, request: Request
    ) -> tuple[dict, str]:
        """PUT's checks before any key material moves.

        ACL, user name, stored lifetime, and the new entry's secret — a
        weak pass phrase is refused here, before the delegation exchange.
        Returns the verifier and key-encryption mode that
        :meth:`store_delegation` needs.
        """
        self.require_acl(self.policy.accepted_credentials, peer)
        self.policy.passphrase_policy.check_username(request.username)
        self.policy.check_stored_lifetime(
            request.lifetime or self.policy.max_stored_lifetime
        )
        return self._initial_verifier(request)

    def store_delegation(
        self,
        peer: ValidatedIdentity,
        request: Request,
        secret: tuple[dict, str],
        delegated: Credential,
        *,
        command: str = "PUT",
        stat: str = "puts",
    ) -> dict:
        """Validate a credential delegated to this server and store it;
        the :attr:`~repro.core.protocol.Reply.COMMIT` that says so.

        ``secret`` is :meth:`check_put`'s answer for the same request;
        ``delegated`` holds the server-side key, however it was exchanged
        (GSI delegation, the HTTP two-step PUT, or IVOA CDP).
        """
        verifier, key_encryption = secret
        if delegated.identity != peer.identity:
            raise PolicyError(
                "delegated credential does not belong to the authenticated "
                f"client ({delegated.identity} vs {peer.identity})"
            )
        self.validator.validate(delegated.full_chain())
        now = self.clock.now()
        slack = 120.0  # the depositor's clock may run ahead of ours
        if delegated.certificate.not_after > now + self.policy.max_stored_lifetime + slack:
            raise PolicyError(
                "delegated credential outlives the server's stored-lifetime policy"
            )
        key = delegated.require_key()
        if key_encryption == KEY_ENC_PASSPHRASE:
            key_pem = key.to_pem(request.passphrase)
        else:
            key_pem = self.master_box.seal(key.to_pem())
        # §6.6: enabling renewal requires a server-openable key copy —
        # the renewer presents no secret (the real MyProxy documents
        # the same weakening for renewable credentials).
        key_pem_renewal = None
        if request.renewers is not None:
            if not self.policy.allow_renewal_auth:
                raise PolicyError("this repository does not allow renewal")
            key_pem_renewal = self.master_box.seal(key.to_pem())
        entry = RepositoryEntry(
            username=request.username,
            cred_name=request.cred_name,
            owner_dn=str(peer.identity),
            certificate_pem=b"".join(c.to_pem() for c in delegated.full_chain()),
            key_pem=key_pem,
            key_encryption=key_encryption,
            verifier=verifier,
            max_get_lifetime=self._max_get_lifetime(request.max_get_lifetime),
            retrievers=request.retrievers,
            created_at=now,
            not_after=delegated.certificate.not_after,
            long_term=False,
            renewers=request.renewers,
            key_pem_renewal=key_pem_renewal,
        )
        self.repository.put(entry)
        self.stats.inc(stat)
        self.audit(
            str(peer.identity), command, request.username, request.cred_name, True,
            f"stored until {entry.not_after:.0f}",
        )
        return dict(stored=True, not_after=entry.not_after, cred_name=entry.cred_name)

    def _max_get_lifetime(self, cap: float | None) -> float:
        """An entry's cap on the lifetimes GET grants: ``cap``, or the
        server's maximum where that is absent or ≤ 0 (PROTOCOL.md §6) —
        as PUT and STORE store it, and as GET and INFO read an entry an
        older server stored."""
        return cap if cap is not None and cap > 0 else self.policy.max_delegation_lifetime

    def _do_put(
        self, channel: SecureChannel, peer: ValidatedIdentity, request: Request
    ) -> tuple[list[bytes], bool]:
        secret = self.check_put(peer, request)
        channel.send(_ok(Reply.ACCEPTED, accepted=True))
        with self._observe_phase("delegation"):
            delegated = accept_delegation(
                channel, key_source=self.key_source, clock=self.clock
            )
        # A refusal from here on is the commit response.
        return [_ok(Reply.COMMIT, **self.store_delegation(peer, request, secret, delegated))], True

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
        self._require_listed(entry.renewers, peer, "renewers")
        if str(peer.identity) != entry.owner_dn:
            raise AuthorizationError(
                "renewal requires a live credential for the same identity "
                f"({peer.identity} vs {entry.owner_dn})"
            )
        return self._decrypt_entry_key(entry, renewal=True)

    def get(
        self,
        peer: ValidatedIdentity,
        request: Request,
        *,
        label: bytes = CSR_POP_LABEL,
    ) -> tuple[Certificate, bytes, dict]:
        """GET, on either binding: check the CSR, authorize, issue and
        record.

        After the server-wide retriever ACL, the request's CSR is checked
        under the binding's PoP ``label``, before the entry is looked up:
        a missing or malformed one, or one whose proof of possession
        fails, is refused alike whether or not the entry exists, spends no
        OTP word and counts toward no lockout.  Then the entry's retriever
        ACL and secret (or §6.6 renewal by possession) and its expiry are
        checked.  The proxy is signed by the one issuing step
        (:func:`~repro.transport.delegation.issue`) as the entry's
        :func:`~repro.pki.proxy.issuance_bound` allows, counted
        and audited, and returned with its issuer chain (PEM) and the
        terms of the :attr:`~repro.core.protocol.Reply.GRANT` that states
        it.
        """
        self.require_acl(self.policy.authorized_retrievers, peer)
        public_key = check_csr(request.csr, peer.identity, label=label)
        entry = self.repository.get(request.username, request.cred_name)
        if request.auth_method is AuthMethod.RENEWAL:
            key = self._verify_renewal(entry, peer)
        else:
            entry = self._verify_secret(entry, request)
            self._require_listed(entry.retrievers, peer, "retrievers")
            key = None  # decrypted below, after the expiry check

        now = self.clock.now()
        if entry.not_after <= now:
            raise AuthenticationError("stored credential has expired")
        if key is None:
            key = self._decrypt_entry_key(entry, request.passphrase)
        stored = self._load_entry_credential(entry, key)
        with self._observe_phase("delegation"):
            bound = issuance_bound(
                stored, request.lifetime, now, default=self.policy.default_delegation_lifetime,
                maximum=self.policy.max_delegation_lifetime,
                cap=self._max_get_lifetime(entry.max_get_lifetime), expires=entry.not_after,
            )
            issued, chain_pem = issue(stored, public_key, bound, chain_pem=entry.certificate_pem)
        self.stats.inc("gets")
        self.audit(
            str(peer.identity), "GET", request.username, request.cred_name, True,
            f"delegated until {issued.not_after:.0f} (auth={request.auth_method.value})",
        )
        return issued, chain_pem, dict(
            granted_lifetime=bound.lifetime, cred_name=request.cred_name, limited=False
        )

    def _do_get(
        self, channel: SecureChannel, peer: ValidatedIdentity, request: Request
    ) -> tuple[list[bytes], bool]:
        """One GET (or GET_MULTI item), one flight: the OK response
        stating the grant, and the Issue."""
        issued, chain_pem, grant = self.get(peer, request)
        return [_ok(Reply.GRANT, **grant), issue_message(issued, chain_pem)], True

    def _do_get_multi(
        self, channel: SecureChannel, peer: ValidatedIdentity, request: Request
    ) -> tuple[list[bytes], bool]:
        """Batched GET: many delegations over one handshake (one RTT of
        asymmetric crypto amortized across the batch — the portal shape
        of §3, where one web server fetches proxies for many users).

        One refused item — denied, rejected, busy or a storage error —
        does not abort the batch: each item gets its own Response (and, on
        success, its own Issue), so the client can pair outcomes
        positionally.  Each item is a single GET — batching changes
        framing, never trust decisions.  Any refused item ends the
        channel, like any other refusal.
        """
        self.require_acl(self.policy.authorized_retrievers, peer)
        items = request.batch or ()
        flight = [_ok(Reply.BATCH, accepted=True, count=len(items))]
        all_served = True
        for item in items:
            try:
                flight += self._do_get(channel, peer, item.as_get())[0]
            except REFUSABLE as exc:
                refusal = self.refuse(
                    exc, str(peer.identity), "GET_MULTI", item.username,
                    item.cred_name,
                )
                flight.append(refusal.response().encode())
                all_served = False
        return flight, all_served

    # ------------------------------------------------------------------
    # INFO / DESTROY / CHANGE_PASSPHRASE
    # ------------------------------------------------------------------

    def info(self, peer: ValidatedIdentity, request: Request) -> dict:
        """INFO: the :attr:`~repro.core.protocol.Reply.LISTING`, one
        :class:`~repro.core.protocol.StoredCredentialInfo` row per
        credential ``peer`` owns under the request's username (owning none
        is a denial)."""
        self.require_acl(self.policy.accepted_credentials, peer)
        username = request.username
        entries = [
            e
            for e in self.repository.list_for(username)
            if e.owner_dn == str(peer.identity)
        ]
        if not entries:
            raise AuthorizationError(
                f"{peer.identity} owns no credentials stored under {username!r}"
            )
        now = self.clock.now()
        rows = [
            StoredCredentialInfo(
                cred_name=e.cred_name, owner=e.owner_dn, not_after=e.not_after,
                seconds_remaining=max(e.not_after - now, 0.0),
                max_get_lifetime=self._max_get_lifetime(e.max_get_lifetime),
                auth_method=e.auth_method, long_term=e.long_term, retrievers=e.retrievers,
            )
            for e in entries
        ]
        self.audit(str(peer.identity), "INFO", username, "", True, f"{len(rows)} entries")
        return dict(username=username, credentials=rows)

    def _owned_entry(
        self, peer: ValidatedIdentity, request: Request
    ) -> RepositoryEntry:
        self.require_acl(self.policy.accepted_credentials, peer)
        entry = self.repository.get(request.username, request.cred_name)
        if entry.owner_dn != str(peer.identity):
            raise AuthorizationError(
                f"{peer.identity} does not own {request.username}/{request.cred_name}"
            )
        return entry

    def destroy(self, peer: ValidatedIdentity, request: Request) -> dict:
        """DESTROY: remove a credential ``peer`` owns; the
        :attr:`~repro.core.protocol.Reply.DESTROYED` ack."""
        self._owned_entry(peer, request)
        self.repository.delete(request.username, request.cred_name)
        self.audit(
            str(peer.identity), "DESTROY", request.username, request.cred_name, True,
            "destroyed",
        )
        return dict(destroyed=True)

    def change_passphrase(self, peer: ValidatedIdentity, request: Request) -> dict:
        """CHANGE_PASSPHRASE: re-encrypt an owned entry's stored key; the
        :attr:`~repro.core.protocol.Reply.CHANGED` ack."""
        entry = self._owned_entry(peer, request)
        if entry.auth_method != AuthMethod.PASSPHRASE.value:
            raise PolicyError("only pass-phrase entries support CHANGE_PASSPHRASE")
        entry = self._verify_secret(entry, request)
        self.policy.passphrase_policy.check(request.new_passphrase)
        key = self._decrypt_entry_key(entry, request.passphrase)
        if entry.long_term:
            # STORE's blob is certificates + key: RETRIEVE returns it and
            # GET reads the key out of it, so re-export all of it.
            new_key_pem = self._load_entry_credential(entry, key).export_pem(
                request.new_passphrase
            )
        else:
            new_key_pem = key.to_pem(request.new_passphrase)
        updated = replace(
            entry,
            key_pem=new_key_pem,
            verifier=make_passphrase_verifier(
                request.new_passphrase, self.policy.kdf_iterations
            ),
        )
        self.repository.put(updated)
        self.audit(
            str(peer.identity), "CHANGE_PASSPHRASE", request.username, request.cred_name,
            True, "pass phrase changed",
        )
        return dict(changed=True)

    @staticmethod
    def _answered(step, reply: Reply):
        """The handler of a command with no transfer step: ``step``'s
        values, answered as ``reply``."""
        return lambda channel, peer, request: ([_ok(reply, **step(peer, request))], True)

    # ------------------------------------------------------------------
    # TRUSTROOTS — anchor + CRL distribution (myproxy-get-trustroots)
    # ------------------------------------------------------------------

    def trustroots(self, peer: ValidatedIdentity | None, request: Request) -> dict:
        """TRUSTROOTS: this repository's trust fabric, CA certs and fresh
        CRLs, as the :attr:`~repro.core.protocol.Reply.TRUSTROOTS` reply.

        All public material — clients use it to bootstrap a trust
        directory or, routinely, to refresh revocation lists.
        """
        cas = [a.to_pem().decode("ascii") for a in self.validator.anchors]
        crls = [crl.to_json() for crl in self.validator.crls]
        self.audit(
            _peer_name(peer), "TRUSTROOTS", request.username, "", True,
            f"{len(cas)} CAs, {len(crls)} CRLs",
        )
        return dict(cas=cas, crls=crls)

    # ------------------------------------------------------------------
    # STORE / RETRIEVE — §6.1 managed long-term credentials
    # ------------------------------------------------------------------

    def _do_store(
        self, channel: SecureChannel, peer: ValidatedIdentity, request: Request
    ) -> tuple[list[bytes], bool]:
        self.require_acl(self.policy.accepted_credentials, peer)
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

        channel.send(_ok(Reply.ACCEPTED, accepted=True))
        blob = channel.recv()

        # A refusal from here on is the commit response.  The key inside
        # the blob stays encrypted under the user's pass phrase end to
        # end: the server verifies it can decrypt (to reject typos) but
        # persists the encrypted form it received.
        credential = Credential.import_pem(blob, request.passphrase)
        if credential.key is None:
            raise CredentialError("STORE payload has no private key")
        if credential.identity != peer.identity:
            raise PolicyError("may only store your own long-term credential")
        self.validator.validate(credential.full_chain())
        entry = RepositoryEntry(
            username=request.username,
            cred_name=request.cred_name,
            owner_dn=str(peer.identity),
            certificate_pem=b"".join(
                c.to_pem() for c in Certificate.list_from_pem(blob)
            ),
            key_pem=blob,  # original PEM, key still pass-phrase-encrypted
            key_encryption=KEY_ENC_PASSPHRASE,
            verifier=verifier,
            max_get_lifetime=self._max_get_lifetime(request.max_get_lifetime),
            retrievers=request.retrievers,
            created_at=self.clock.now(),
            not_after=credential.certificate.not_after,
            long_term=True,
        )
        self.repository.put(entry)
        self.stats.inc("stores")
        self.audit(
            str(peer.identity), "STORE", request.username, request.cred_name, True,
            "long-term credential stored",
        )
        return [_ok(Reply.STORED, stored=True, long_term=True)], True

    def _do_retrieve(
        self, channel: SecureChannel, peer: ValidatedIdentity, request: Request
    ) -> tuple[list[bytes], bool]:
        self.require_acl(self.policy.authorized_retrievers, peer)
        entry = self.repository.get(request.username, request.cred_name)
        if not entry.long_term:
            raise AuthorizationError("RETRIEVE is only allowed for long-term entries")
        entry = self._verify_secret(entry, request)
        self._require_listed(entry.retrievers, peer, "retrievers")
        self.stats.inc("retrieves")
        self.audit(
            str(peer.identity), "RETRIEVE", request.username, request.cred_name, True,
            "long-term credential returned (key still encrypted)",
        )
        # The original PEM, its key still under the user's pass phrase.
        return [_ok(Reply.RETRIEVED, long_term=True), entry.key_pem], True
