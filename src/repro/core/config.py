"""The ``myproxy-server.config`` file (§4.1's "local policy", §5.1's ACLs).

The original server was configured with a flat directive file; this module
parses the same style into a :class:`~repro.core.policy.ServerPolicy`::

    # who may delegate to this repository (repeatable)
    accepted_credentials "/O=Grid/OU=People/CN=*"
    # who may retrieve delegations (repeatable)
    authorized_retrievers "/O=Grid/CN=host/portal.*"
    # who may renew by possession (repeatable; §6.6)
    authorized_renewers "/O=Grid/OU=People/CN=*"

    max_stored_lifetime_days      7
    max_delegation_lifetime_hours 12
    default_delegation_lifetime_hours 2

    passphrase_min_length 8
    passphrase_require_non_alpha

    kdf_iterations 20000
    disable_otp            # or disable_passphrase / disable_site / disable_renewal

Observability (see :mod:`repro.obs`)::

    slow_op_threshold 0.5   # seconds; log operations slower than this
    metrics_port 9512       # serve Prometheus text at http://host:9512/metrics

Admission control and fairness (see :mod:`repro.qos`)::

    listen_backlog 128          # TCP accept backlog (default 64)
    connection_timeout 30       # per-connection socket timeout, seconds
    qos_rate 10                 # base per-identity conversations/second
    qos_burst 40                # base per-identity burst (0 = 2 x rate)
    qos_queue_depth 64          # admission queue bound (0 = no queueing)
    qos_queue_deadline 3        # shed connections queued longer, seconds
    # weighted service classes: name, weight, DN glob (repeatable; first
    # match wins; unmatched identities get the built-in default, weight 1)
    qos_class "portal      8 /O=Grid/CN=host/portal.*"
    qos_class "interactive 1 /O=Grid/OU=People/CN=*"

Crypto hot path (see :mod:`repro.transport.tickets`,
:mod:`repro.pki.keys`)::

    session_ticket_lifetime 3600   # seconds a resumption ticket stays valid
    disable_session_tickets        # full handshake on every connection
    keypair_pool 32                # one-shot pre-generated delegation keys (0 = off)

Federation (see :mod:`repro.federation`)::

    federation                        # turn the subsystem on
    realm_name "alpha"                # this deployment's realm
    # portals whose SSO assertions the gateway redeems (repeatable)
    federation_portals "/O=Grid/CN=host/portal-*"
    assertion_max_lifetime 300        # seconds; assertions are bearer tokens
    federation_delegation_lifetime 3600   # seconds for deposited proxies
    # peer realms: trust roots, optionally a CDP endpoint (repeatable)
    realm_peer "beta /etc/grid-security/beta-roots.pem beta.example.org:7513"

Storage engine tuning (see :mod:`repro.core.segments`)::

    storage_segment_max_bytes 33554432   # roll the active segment at this size
    storage_compact_ratio 0.5            # compact when half the sealed bytes are dead
    storage_cache_entries 1024           # hot-entry read cache (0 = off)
    storage_compact_interval 0           # background compactor period, seconds (0 = inline only)

A clustered deployment (see :mod:`repro.cluster`) adds its membership in
the same file::

    cluster_node_name "node0"
    # every member, self included (repeatable)
    cluster_peer "node0 10.0.0.1:7512"
    cluster_peer "node1 10.0.0.2:7512"
    cluster_peer "node2 10.0.0.3:7512"
    cluster_secret "66616e6f7574..."   # hex; HMACs the replication log
    cluster_replication_factor 2
    cluster_min_sync_acks 1
    cluster_heartbeat_seconds 1
    cluster_failover_timeout_seconds 5
    cluster_state_dir "/var/lib/myproxy/cluster"
    cluster_quorum 3                  # votes to renew a lease / confirm a death
    cluster_lease_seconds 5           # primary lease length (0 = leases off)
    cluster_probe_timeout_seconds 2   # hung heartbeat probe = missed beat

Portals that build a cluster client from the same file can bound how hard
that client retries into a degraded cluster::

    client_breaker_failures 8             # consecutive failures to open a breaker
    client_breaker_cooldown_seconds 3     # open time before a half-open probe
    client_retry_budget_tokens 64         # extra-dial bucket size
    client_retry_budget_refill_per_s 8    # bucket refill rate
    client_deadline_seconds 30            # end-to-end op deadline (0 = none)

Unknown directives are an error (silently ignored security configuration
is how deployments end up open).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.policy import PassphrasePolicy, ServerPolicy
from repro.gsi.acl import AccessControlList
from repro.qos.classes import ServiceClass
from repro.util.errors import ConfigError

_ACL_KEYS = (
    "accepted_credentials",
    "authorized_retrievers",
    "authorized_renewers",
    "federation_portals",
)
_NUMBER_KEYS = {
    "max_stored_lifetime_days": 86400.0,
    "max_delegation_lifetime_hours": 3600.0,
    "default_delegation_lifetime_hours": 3600.0,
    "passphrase_min_length": None,  # integer, no unit
    "kdf_iterations": None,
    "slow_op_threshold": None,  # seconds, no unit
    "listen_backlog": None,
    "connection_timeout": None,  # seconds, no unit
    "qos_rate": None,  # tokens/second, no unit
    "qos_burst": None,
    "qos_queue_deadline": None,  # seconds, no unit
    "session_ticket_lifetime": None,  # seconds, no unit
    "assertion_max_lifetime": None,  # seconds, no unit
    "federation_delegation_lifetime": None,  # seconds, no unit
}
#: Numeric directives for which zero is meaningful ("feature off").
_ZERO_OK_NUMBER_KEYS = ("qos_queue_depth", "keypair_pool")
_OBS_NUMBER_KEYS = ("metrics_port",)
_FLAG_KEYS = (
    "passphrase_require_non_alpha",
    "disable_passphrase",
    "disable_otp",
    "disable_site",
    "disable_renewal",
    "disable_session_tickets",
    "federation",
)
_FEDERATION_STRING_KEYS = ("realm_name",)
#: Storage knobs where zero is meaningful (cache off, inline-only compaction).
_STORAGE_ZERO_OK_KEYS = (
    "storage_cache_entries",
    "storage_compact_interval",
    "storage_compact_ratio",
)
_STORAGE_NUMBER_KEYS = ("storage_segment_max_bytes",)
_CLUSTER_STRING_KEYS = ("cluster_node_name", "cluster_secret", "cluster_state_dir")
_CLUSTER_NUMBER_KEYS = (
    "cluster_replication_factor",
    "cluster_min_sync_acks",
    "cluster_heartbeat_seconds",
    "cluster_failover_timeout_seconds",
    "cluster_quorum",
    "cluster_probe_timeout_seconds",
)
#: Cluster knobs where zero is meaningful (primary leases off).
_CLUSTER_ZERO_OK_KEYS = ("cluster_lease_seconds",)
#: Client-side resilience knobs, read by portals that build a
#: :class:`~repro.cluster.failover.FailoverMyProxyClient` from the same
#: config file the servers use.
_CLIENT_NUMBER_KEYS = (
    "client_retry_budget_tokens",
    "client_breaker_failures",
    "client_breaker_cooldown_seconds",
)
#: Client knobs where zero is meaningful (no refill / no deadline).
_CLIENT_ZERO_OK_KEYS = (
    "client_retry_budget_refill_per_s",
    "client_deadline_seconds",
)


@dataclass(frozen=True)
class ClusterPeer:
    """One member of the cluster as named in the config file."""

    name: str
    host: str
    port: int


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster membership and replication knobs for one node."""

    node_name: str
    peers: tuple[ClusterPeer, ...]
    secret: bytes
    replication_factor: int = 2
    min_sync_acks: int = 1
    heartbeat_interval: float = 1.0
    failover_timeout: float = 5.0
    state_dir: str | None = None
    #: Votes needed to renew a lease or confirm a peer unreachable;
    #: ``None`` derives a strict majority of nodes + coordinator witness.
    quorum: int | None = None
    #: Primary lease length; ``None`` tracks failover_timeout, 0 disables.
    lease_seconds: float | None = None
    #: Hard deadline on each heartbeat probe (hung peer = missed beat).
    probe_timeout: float = 2.0

    def peer_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.peers)

    def peer(self, name: str) -> ClusterPeer:
        for peer in self.peers:
            if peer.name == name:
                return peer
        raise ConfigError(f"no cluster peer named {name!r}")


@dataclass(frozen=True)
class ClientResilienceConfig:
    """Client-side brakes for dialing a degraded cluster.

    Defaults mirror :mod:`repro.cluster.failover`: generous enough that a
    healthy deployment never notices them.  ``deadline_seconds=None``
    leaves operations unbounded (the retry schedule alone limits them).
    """

    breaker_failures: int = 8
    breaker_cooldown: float = 3.0
    retry_budget_tokens: float = 64.0
    retry_budget_refill_per_s: float = 8.0
    deadline_seconds: float | None = None


@dataclass(frozen=True)
class StorageConfig:
    """The segment engine's tuning knobs (``storage_*`` directives)."""

    segment_max_bytes: int = 32 * 1024 * 1024
    compact_ratio: float = 0.5
    cache_entries: int = 1024
    compact_interval: float = 0.0


@dataclass(frozen=True)
class ServerConfig:
    """Everything one ``myproxy-server.config`` file describes."""

    policy: ServerPolicy
    cluster: ClusterConfig | None = None
    #: Segment-engine knobs (``storage_*`` directives).
    storage: StorageConfig = StorageConfig()
    #: Port for the plain-HTTP Prometheus ``/metrics`` endpoint
    #: (``metrics_port`` directive); ``None`` leaves it off.
    metrics_port: int | None = None
    #: Peer realms (``realm_peer`` directives): trust roots to load plus
    #: optional CDP endpoints, consumed when federation is enabled.
    realm_peers: tuple = ()
    #: Client-side resilience knobs (``client_*`` directives) for portals
    #: building a failover client from this file.
    client_resilience: ClientResilienceConfig = ClientResilienceConfig()


def _split_directive(line: str) -> tuple[str, str]:
    key, _, rest = line.partition(" ")
    return key.strip(), rest.strip().strip('"')


def _parse_cluster(
    strings: dict[str, str],
    numbers: dict[str, float],
    peers: list[ClusterPeer],
) -> ClusterConfig | None:
    if not strings and not numbers and not peers:
        return None
    node_name = strings.get("cluster_node_name")
    if not node_name:
        raise ConfigError("cluster configuration needs cluster_node_name")
    if not peers:
        raise ConfigError("cluster configuration needs at least one cluster_peer")
    if node_name not in {p.name for p in peers}:
        raise ConfigError(
            f"cluster_node_name {node_name!r} is not among the cluster_peer entries"
        )
    if len({p.name for p in peers}) != len(peers):
        raise ConfigError("duplicate cluster_peer names")
    secret_hex = strings.get("cluster_secret")
    if not secret_hex:
        raise ConfigError("cluster configuration needs cluster_secret (hex)")
    try:
        secret = bytes.fromhex(secret_hex)
    except ValueError as exc:
        raise ConfigError("cluster_secret must be hexadecimal") from exc
    if len(secret) < 16:
        raise ConfigError("cluster_secret must be at least 16 bytes of entropy")
    quorum = None
    if "cluster_quorum" in numbers:
        quorum = int(numbers["cluster_quorum"])
        # Electorate = every node plus the coordinator's own witness vote.
        electorate = len(peers) + 1
        if not 1 <= quorum <= electorate:
            raise ConfigError(
                f"cluster_quorum must lie in 1..{electorate} "
                f"({len(peers)} nodes + the coordinator witness)"
            )
    return ClusterConfig(
        node_name=node_name,
        peers=tuple(peers),
        secret=secret,
        replication_factor=int(numbers.get("cluster_replication_factor", 2)),
        min_sync_acks=int(numbers.get("cluster_min_sync_acks", 1)),
        heartbeat_interval=float(numbers.get("cluster_heartbeat_seconds", 1.0)),
        failover_timeout=float(numbers.get("cluster_failover_timeout_seconds", 5.0)),
        state_dir=strings.get("cluster_state_dir"),
        quorum=quorum,
        lease_seconds=(
            float(numbers["cluster_lease_seconds"])
            if "cluster_lease_seconds" in numbers
            else None
        ),
        probe_timeout=float(numbers.get("cluster_probe_timeout_seconds", 2.0)),
    )


def _parse_qos_classes(lines: list[tuple[int, str]]) -> tuple[ServiceClass, ...]:
    """``qos_class "name weight dn_glob"`` lines → ordered service classes.

    Repeating a name appends another pattern to that class (its weight must
    not change).  Declaration order is resolution order (first match wins).
    """
    order: list[str] = []
    weights: dict[str, float] = {}
    patterns: dict[str, list[str]] = {}
    for lineno, value in lines:
        parts = value.split(None, 2)
        if len(parts) != 3:
            raise ConfigError(
                f'line {lineno}: qos_class needs "name weight dn_glob", got {value!r}'
            )
        name, weight_text, pattern = parts
        try:
            weight = float(weight_text)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: qos_class weight must be a number"
            ) from exc
        if weight <= 0:
            raise ConfigError(f"line {lineno}: qos_class weight must be positive")
        if name in weights:
            if weights[name] != weight:
                raise ConfigError(
                    f"line {lineno}: qos_class {name!r} redeclared with a "
                    f"different weight ({weights[name]:g} vs {weight:g})"
                )
        else:
            order.append(name)
            weights[name] = weight
            patterns[name] = []
        patterns[name].append(pattern)
    return tuple(
        ServiceClass(name, weights[name], tuple(patterns[name])) for name in order
    )


def _parse_peer(value: str, lineno: int) -> ClusterPeer:
    name, _, endpoint = value.partition(" ")
    host, sep, port = endpoint.strip().rpartition(":")
    if not name or not sep or not host:
        raise ConfigError(
            f'line {lineno}: cluster_peer needs "name host:port", got {value!r}'
        )
    try:
        return ClusterPeer(name=name, host=host, port=int(port))
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: cluster_peer port must be an integer") from exc


def parse_config(text: str) -> ServerConfig:
    """Parse directive text into policy plus optional cluster membership."""
    acls: dict[str, list[str]] = {key: [] for key in _ACL_KEYS}
    numbers: dict[str, float] = {}
    flags: set[str] = set()
    cluster_strings: dict[str, str] = {}
    cluster_numbers: dict[str, float] = {}
    obs_numbers: dict[str, int] = {}
    peers: list[ClusterPeer] = []
    qos_class_lines: list[tuple[int, str]] = []
    federation_strings: dict[str, str] = {}
    realm_peer_lines: list[tuple[int, str]] = []
    storage_numbers: dict[str, float] = {}
    client_numbers: dict[str, float] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = _split_directive(line)
        if key in _ACL_KEYS:
            if not value:
                raise ConfigError(f"line {lineno}: {key} needs a DN glob")
            acls[key].append(value)
        elif key in _NUMBER_KEYS:
            try:
                numbers[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} needs a number") from exc
            if numbers[key] <= 0:
                raise ConfigError(f"line {lineno}: {key} must be positive")
        elif key in _ZERO_OK_NUMBER_KEYS:
            try:
                numbers[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} needs a number") from exc
            if numbers[key] < 0:
                raise ConfigError(f"line {lineno}: {key} must be non-negative")
        elif key == "qos_class":
            if not value:
                raise ConfigError(f'line {lineno}: qos_class needs "name weight dn_glob"')
            qos_class_lines.append((lineno, value))
        elif key in _FLAG_KEYS:
            if value:
                raise ConfigError(f"line {lineno}: {key} takes no value")
            flags.add(key)
        elif key == "cluster_peer":
            peers.append(_parse_peer(value, lineno))
        elif key == "realm_peer":
            if not value:
                raise ConfigError(
                    f'line {lineno}: realm_peer needs "name roots.pem [host:port]"'
                )
            realm_peer_lines.append((lineno, value))
        elif key in _FEDERATION_STRING_KEYS:
            if not value:
                raise ConfigError(f"line {lineno}: {key} needs a value")
            federation_strings[key] = value
        elif key in _STORAGE_NUMBER_KEYS or key in _STORAGE_ZERO_OK_KEYS:
            try:
                storage_numbers[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} needs a number") from exc
            if key in _STORAGE_ZERO_OK_KEYS:
                if storage_numbers[key] < 0:
                    raise ConfigError(f"line {lineno}: {key} must be non-negative")
            elif storage_numbers[key] <= 0:
                raise ConfigError(f"line {lineno}: {key} must be positive")
            if key == "storage_compact_ratio" and storage_numbers[key] > 1:
                raise ConfigError(
                    f"line {lineno}: {key} is a dead-byte fraction (0..1)"
                )
        elif key in _CLUSTER_STRING_KEYS:
            if not value:
                raise ConfigError(f"line {lineno}: {key} needs a value")
            cluster_strings[key] = value
        elif key in _CLUSTER_NUMBER_KEYS or key in _CLUSTER_ZERO_OK_KEYS:
            try:
                cluster_numbers[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} needs a number") from exc
            if key in _CLUSTER_ZERO_OK_KEYS:
                if cluster_numbers[key] < 0:
                    raise ConfigError(f"line {lineno}: {key} must be non-negative")
            elif cluster_numbers[key] <= 0:
                raise ConfigError(f"line {lineno}: {key} must be positive")
        elif key in _CLIENT_NUMBER_KEYS or key in _CLIENT_ZERO_OK_KEYS:
            try:
                client_numbers[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} needs a number") from exc
            if key in _CLIENT_ZERO_OK_KEYS:
                if client_numbers[key] < 0:
                    raise ConfigError(f"line {lineno}: {key} must be non-negative")
            elif client_numbers[key] <= 0:
                raise ConfigError(f"line {lineno}: {key} must be positive")
        elif key in _OBS_NUMBER_KEYS:
            try:
                obs_numbers[key] = int(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} needs an integer") from exc
            if not 0 < obs_numbers[key] < 65536:
                raise ConfigError(f"line {lineno}: {key} must be a TCP port")
        else:
            raise ConfigError(f"line {lineno}: unknown directive {key!r}")

    def _acl(key: str) -> AccessControlList:
        patterns = acls[key]
        if not patterns:
            return AccessControlList.allow_all(key)
        return AccessControlList(patterns, name=key)

    def _scaled(key: str, default: float) -> float:
        unit = _NUMBER_KEYS[key]
        if key not in numbers:
            return default
        return numbers[key] * (unit or 1.0)

    defaults = ServerPolicy()
    passphrase_policy = PassphrasePolicy(
        min_length=int(numbers.get("passphrase_min_length",
                                   defaults.passphrase_policy.min_length)),
        require_non_alpha="passphrase_require_non_alpha" in flags,
    )
    policy = ServerPolicy(
        max_stored_lifetime=_scaled(
            "max_stored_lifetime_days", defaults.max_stored_lifetime
        ),
        max_delegation_lifetime=_scaled(
            "max_delegation_lifetime_hours", defaults.max_delegation_lifetime
        ),
        default_delegation_lifetime=_scaled(
            "default_delegation_lifetime_hours", defaults.default_delegation_lifetime
        ),
        passphrase_policy=passphrase_policy,
        accepted_credentials=_acl("accepted_credentials"),
        authorized_retrievers=_acl("authorized_retrievers"),
        authorized_renewers=_acl("authorized_renewers"),
        kdf_iterations=int(numbers.get("kdf_iterations", defaults.kdf_iterations)),
        allow_passphrase_auth="disable_passphrase" not in flags,
        allow_otp_auth="disable_otp" not in flags,
        allow_site_auth="disable_site" not in flags,
        allow_renewal_auth="disable_renewal" not in flags,
        slow_op_threshold=float(
            numbers.get("slow_op_threshold", defaults.slow_op_threshold)
        ),
        listen_backlog=int(numbers.get("listen_backlog", defaults.listen_backlog)),
        connection_timeout=float(
            numbers.get("connection_timeout", defaults.connection_timeout)
        ),
        qos_rate=float(numbers.get("qos_rate", defaults.qos_rate)),
        qos_burst=float(numbers.get("qos_burst", defaults.qos_burst)),
        qos_queue_depth=int(
            numbers.get("qos_queue_depth", defaults.qos_queue_depth)
        ),
        qos_queue_deadline=float(
            numbers.get("qos_queue_deadline", defaults.qos_queue_deadline)
        ),
        qos_classes=_parse_qos_classes(qos_class_lines),
        session_tickets="disable_session_tickets" not in flags,
        session_ticket_lifetime=float(
            numbers.get("session_ticket_lifetime", defaults.session_ticket_lifetime)
        ),
        keypair_pool_size=int(
            numbers.get("keypair_pool", defaults.keypair_pool_size)
        ),
        federation_enabled="federation" in flags,
        realm_name=federation_strings.get("realm_name", defaults.realm_name),
        federation_portals=_acl("federation_portals"),
        assertion_max_lifetime=float(
            numbers.get("assertion_max_lifetime", defaults.assertion_max_lifetime)
        ),
        federation_delegation_lifetime=float(
            numbers.get(
                "federation_delegation_lifetime",
                defaults.federation_delegation_lifetime,
            )
        ),
    )
    from repro.federation.realms import parse_realm_peer
    from repro.util.errors import PolicyError as _PolicyError

    realm_peers = []
    for lineno, value in realm_peer_lines:
        try:
            realm_peers.append(parse_realm_peer(value, lineno))
        except _PolicyError as exc:
            raise ConfigError(str(exc)) from exc
    if realm_peers and not policy.federation_enabled:
        raise ConfigError(
            "realm_peer directives require the federation directive"
        )
    storage_defaults = StorageConfig()
    storage = StorageConfig(
        segment_max_bytes=int(
            storage_numbers.get(
                "storage_segment_max_bytes", storage_defaults.segment_max_bytes
            )
        ),
        compact_ratio=float(
            storage_numbers.get("storage_compact_ratio", storage_defaults.compact_ratio)
        ),
        cache_entries=int(
            storage_numbers.get("storage_cache_entries", storage_defaults.cache_entries)
        ),
        compact_interval=float(
            storage_numbers.get(
                "storage_compact_interval", storage_defaults.compact_interval
            )
        ),
    )
    res_defaults = ClientResilienceConfig()
    client_resilience = ClientResilienceConfig(
        breaker_failures=int(
            client_numbers.get("client_breaker_failures", res_defaults.breaker_failures)
        ),
        breaker_cooldown=float(
            client_numbers.get(
                "client_breaker_cooldown_seconds", res_defaults.breaker_cooldown
            )
        ),
        retry_budget_tokens=float(
            client_numbers.get(
                "client_retry_budget_tokens", res_defaults.retry_budget_tokens
            )
        ),
        retry_budget_refill_per_s=float(
            client_numbers.get(
                "client_retry_budget_refill_per_s",
                res_defaults.retry_budget_refill_per_s,
            )
        ),
        # 0 means "no deadline" so the directive can be toggled in place.
        deadline_seconds=client_numbers.get("client_deadline_seconds") or None,
    )
    return ServerConfig(
        policy=policy,
        cluster=_parse_cluster(cluster_strings, cluster_numbers, peers),
        storage=storage,
        metrics_port=obs_numbers.get("metrics_port"),
        realm_peers=tuple(realm_peers),
        client_resilience=client_resilience,
    )


def known_directives() -> set[str]:
    """Every directive :func:`parse_config` accepts.

    ``docs/CONFIG.md`` must document each of these; a test diffs the two
    so a new directive cannot land without its reference row.
    """
    return (
        set(_ACL_KEYS)
        | set(_NUMBER_KEYS)
        | set(_ZERO_OK_NUMBER_KEYS)
        | set(_OBS_NUMBER_KEYS)
        | set(_FLAG_KEYS)
        | set(_FEDERATION_STRING_KEYS)
        | set(_STORAGE_ZERO_OK_KEYS)
        | set(_STORAGE_NUMBER_KEYS)
        | set(_CLUSTER_STRING_KEYS)
        | set(_CLUSTER_NUMBER_KEYS)
        | set(_CLUSTER_ZERO_OK_KEYS)
        | set(_CLIENT_NUMBER_KEYS)
        | set(_CLIENT_ZERO_OK_KEYS)
        | {"qos_class", "cluster_peer", "realm_peer"}
    )


def parse_server_config(text: str) -> ServerPolicy:
    """Parse directive text into a fully-populated policy (legacy surface)."""
    return parse_config(text).policy


def load_config(path: str | Path) -> ServerConfig:
    return parse_config(Path(path).read_text("utf-8"))


def load_server_config(path: str | Path) -> ServerPolicy:
    return load_config(path).policy
