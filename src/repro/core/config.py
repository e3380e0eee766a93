"""The ``myproxy-server.config`` file (§4.1's "local policy", §5.1's ACLs).

One ``name value`` directive per line; ``#`` starts a comment and a value
may be quoted.  :data:`DIRECTIVES` declares each directive once: how its
value parses, the bound the file enforces and the config field it sets,
whose dataclass default is the directive's default.  ``myproxy-server``
builds its directive flags from the same rows and bounds their values
the same way.  ``docs/CONFIG.md`` is the operator reference.

Unknown directives are an error (silently ignored security configuration
is how deployments end up open).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

from repro.core.policy import ONE_DAY, ONE_HOUR, PassphrasePolicy, ServerPolicy
from repro.core.segments import StorageConfig
from repro.gsi.acl import AccessControlList
from repro.qos.classes import ServiceClass
from repro.util.errors import ConfigError, PolicyError


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
class ServerConfig:
    """Everything one ``myproxy-server.config`` file describes."""

    policy: ServerPolicy
    cluster: ClusterConfig | None = None
    storage: StorageConfig = StorageConfig()
    #: Plain-HTTP ``/metrics`` port; ``None`` leaves the exporter off.
    metrics_port: int | None = None
    #: Peer realms whose trust roots federation loads.
    realm_peers: tuple = ()


# Value kinds: a flag takes no value and flips its field's default; an
# ACL, qos_class, cluster_peer or realm_peer line adds one item.
NUMBER, INTEGER, FLAG, STRING = "number", "integer", "flag", "string"
ACL, QOS_CLASS, CLUSTER_PEER, REALM_PEER = "acl", "qos_class", "cluster_peer", "realm_peer"
_REPEATABLE = (ACL, QOS_CLASS, CLUSTER_PEER, REALM_PEER)
_NEEDS = {STRING: "a value", ACL: "a DN glob", QOS_CLASS: '"name weight dn_glob"',
          CLUSTER_PEER: '"name host:port"', REALM_PEER: '"name roots.pem [host:port]"'}
# Bounds on a number as written, before its unit scales it.
POSITIVE, NON_NEGATIVE, PORT, FRACTION = "positive", "non-negative", "port", "fraction"
_BOUNDS = {
    POSITIVE: (lambda v: v > 0, "must be positive"),
    NON_NEGATIVE: (lambda v: v >= 0, "must be non-negative"),
    PORT: (lambda v: 0 < v < 65536, "must be a TCP port"),
    FRACTION: (lambda v: 0 <= v <= 1, "must be a fraction (0..1)"),
}
_TARGETS = {"policy": ServerPolicy, "passphrase": PassphrasePolicy,
            "storage": StorageConfig, "cluster": ClusterConfig, "server": ServerConfig}


class Directive(NamedTuple):
    """One directive row; ``target`` names ``"<config object>.<field>"``."""

    name: str
    kind: str
    bound: str | None
    target: str
    help: str = ""  # the myproxy-server flag's help, for rows with a flag
    unit: float = 1.0  # seconds per written unit (days, hours)
    flag: bool = False


DIRECTIVES: tuple[Directive, ...] = (
    # access control (§4.1 local policy, §5.1 ACLs)
    Directive("accepted_credentials", ACL, None, "policy.accepted_credentials",
              "who may delegate to this repository (repeatable)", flag=True),
    Directive("authorized_retrievers", ACL, None, "policy.authorized_retrievers",
              "who may retrieve delegations (repeatable)", flag=True),
    Directive("authorized_renewers", ACL, None, "policy.authorized_renewers"),
    Directive("passphrase_min_length", INTEGER, POSITIVE, "passphrase.min_length"),
    Directive("passphrase_require_non_alpha", FLAG, None, "passphrase.require_non_alpha"),
    Directive("kdf_iterations", INTEGER, POSITIVE, "policy.kdf_iterations"),
    Directive("disable_passphrase", FLAG, None, "policy.allow_passphrase_auth"),
    Directive("disable_otp", FLAG, None, "policy.allow_otp_auth"),
    Directive("disable_site", FLAG, None, "policy.allow_site_auth"),
    Directive("disable_renewal", FLAG, None, "policy.allow_renewal_auth"),
    # lifetimes (§4.3)
    Directive("max_stored_lifetime_days", NUMBER, POSITIVE, "policy.max_stored_lifetime",
              "cap on credentials delegated to the repository, days", ONE_DAY, True),
    Directive("max_delegation_lifetime_hours", NUMBER, POSITIVE, "policy.max_delegation_lifetime",
              "cap on proxies delegated from the repository, hours", ONE_HOUR, True),
    Directive("default_delegation_lifetime_hours", NUMBER, POSITIVE,
              "policy.default_delegation_lifetime", unit=ONE_HOUR),
    # observability (repro.obs)
    Directive("slow_op_threshold", NUMBER, POSITIVE, "policy.slow_op_threshold",
              "log operations slower than this, seconds", flag=True),
    Directive("metrics_port", INTEGER, PORT, "server.metrics_port",
              "serve Prometheus text at http://HOST:PORT/metrics (0: a free port)", flag=True),
    # admission control and fairness (repro.qos)
    Directive("listen_backlog", INTEGER, POSITIVE, "policy.listen_backlog",
              "TCP accept backlog", flag=True),
    Directive("connection_timeout", NUMBER, POSITIVE, "policy.connection_timeout",
              "per-connection socket timeout, seconds", flag=True),
    Directive("qos_rate", NUMBER, POSITIVE, "policy.qos_rate",
              "base per-identity admission rate, per second (unset: unlimited)", flag=True),
    Directive("qos_burst", NUMBER, POSITIVE, "policy.qos_burst",
              "base per-identity burst capacity, tokens", flag=True),
    Directive("qos_queue_depth", INTEGER, NON_NEGATIVE, "policy.qos_queue_depth",
              "admission queue bound; 0 disables queueing", flag=True),
    Directive("qos_queue_deadline", NUMBER, POSITIVE, "policy.qos_queue_deadline",
              "shed connections queued longer than this, seconds", flag=True),
    Directive("qos_class", QOS_CLASS, None, "policy.qos_classes",
              "weighted service class (repeatable)", flag=True),
    # crypto hot path (repro.transport.tickets, repro.pki.keys)
    Directive("session_ticket_lifetime", NUMBER, POSITIVE, "policy.session_ticket_lifetime",
              "session-resumption ticket lifetime, seconds", flag=True),
    Directive("disable_session_tickets", FLAG, None, "policy.session_tickets",
              "never issue or accept resumption tickets", flag=True),
    Directive("keypair_pool", INTEGER, NON_NEGATIVE, "policy.keypair_pool_size",
              "one-shot delegation keypairs generated ahead; 0 = inline", flag=True),
    # storage engine (repro.core.segments)
    Directive("storage_segment_max_bytes", INTEGER, POSITIVE, "storage.segment_max_bytes"),
    Directive("storage_compact_ratio", NUMBER, FRACTION, "storage.compact_ratio"),
    Directive("storage_cache_entries", INTEGER, NON_NEGATIVE, "storage.cache_entries"),
    Directive("storage_compact_interval", NUMBER, NON_NEGATIVE, "storage.compact_interval"),
    # federation (repro.federation)
    Directive("federation", FLAG, None, "policy.federation_enabled",
              "serve the HTTPS binding + CDP endpoints, load peer realms", flag=True),
    Directive("realm_name", STRING, None, "policy.realm_name",
              "this deployment's federation realm", flag=True),
    Directive("federation_portals", ACL, None, "policy.federation_portals"),
    Directive("assertion_max_lifetime", NUMBER, POSITIVE, "policy.assertion_max_lifetime"),
    Directive("federation_delegation_lifetime", NUMBER, POSITIVE,
              "policy.federation_delegation_lifetime"),
    Directive("realm_peer", REALM_PEER, None, "server.realm_peers"),
    # cluster membership (repro.cluster)
    Directive("cluster_node_name", STRING, None, "cluster.node_name"),
    Directive("cluster_peer", CLUSTER_PEER, None, "cluster.peers"),
    Directive("cluster_secret", STRING, None, "cluster.secret"),
    Directive("cluster_replication_factor", INTEGER, POSITIVE, "cluster.replication_factor"),
    Directive("cluster_min_sync_acks", INTEGER, POSITIVE, "cluster.min_sync_acks"),
    Directive("cluster_heartbeat_seconds", NUMBER, POSITIVE, "cluster.heartbeat_interval"),
    Directive("cluster_failover_timeout_seconds", NUMBER, POSITIVE, "cluster.failover_timeout"),
    Directive("cluster_state_dir", STRING, None, "cluster.state_dir"),
    Directive("cluster_quorum", INTEGER, POSITIVE, "cluster.quorum"),
    Directive("cluster_lease_seconds", NUMBER, NON_NEGATIVE, "cluster.lease_seconds"),
    Directive("cluster_probe_timeout_seconds", NUMBER, POSITIVE, "cluster.probe_timeout"),
)
_BY_NAME = {d.name: d for d in DIRECTIVES}


def known_directives() -> set[str]:
    """Every directive :func:`parse_config` accepts (``docs/CONFIG.md`` rows)."""
    return set(_BY_NAME)


def directive_default(d: Directive):
    """The directive's default: its target field's dataclass default."""
    target, name = d.target.split(".")
    return next(f.default for f in fields(_TARGETS[target]) if f.name == name)


def cli_flag(d: Directive) -> str:
    """The ``myproxy-server`` option spelling of a directive."""
    return "--" + d.name.replace("_", "-")


def _at(where: int | str) -> str:
    """``where`` is a config-file line number or the flag that gave the value."""
    return f"line {where}" if isinstance(where, int) else where


def _parse_qos_classes(lines: list[tuple[int | str, str]]) -> tuple[ServiceClass, ...]:
    """``qos_class "name weight dn_glob"`` lines → ordered service classes.

    Repeating a name appends another pattern to that class (its weight must
    not change).  Declaration order is resolution order (first match wins).
    """
    classes: dict[str, tuple[float, list[str]]] = {}
    for where, value in lines:
        parts = value.split(None, 2)
        if len(parts) != 3:
            raise ConfigError(f'{_at(where)}: qos_class needs "name weight dn_glob", got {value!r}')
        name, weight_text, pattern = parts
        try:
            weight = float(weight_text)
        except ValueError as exc:
            raise ConfigError(f"{_at(where)}: qos_class weight must be a number") from exc
        if weight <= 0:
            raise ConfigError(f"{_at(where)}: qos_class weight must be positive")
        known, patterns = classes.setdefault(name, (weight, []))
        if known != weight:
            raise ConfigError(f"{_at(where)}: qos_class {name!r} redeclared with a "
                              f"different weight ({known:g} vs {weight:g})")
        patterns.append(pattern)
    return tuple(ServiceClass(name, w, tuple(p)) for name, (w, p) in classes.items())


def _value(d: Directive, text: str, where: int | str):
    """One value of ``d``, parsed and bounded (one item, for a repeatable)."""
    if d.kind == FLAG:
        if text:
            raise ConfigError(f"{_at(where)}: {d.name} takes no value")
        return not directive_default(d)
    if d.kind in (NUMBER, INTEGER):
        try:
            value = float(text)
        except ValueError as exc:
            raise ConfigError(f"{_at(where)}: {d.name} needs a number") from exc
        if d.kind == INTEGER and not value.is_integer():
            raise ConfigError(f"{_at(where)}: {d.name} needs an integer")
        in_bound, rule = _BOUNDS[d.bound]
        # ``--metrics-port 0`` asks the kernel for a free port; a file names one.
        if not in_bound(value) and not (d.bound == PORT and value == 0 and where == cli_flag(d)):
            raise ConfigError(f"{_at(where)}: {d.name} {rule}")
        return int(value) if d.kind == INTEGER else value * d.unit
    if not text:
        raise ConfigError(f"{_at(where)}: {d.name} needs {_NEEDS[d.kind]}")
    if d.kind == CLUSTER_PEER:
        name, _, endpoint = text.partition(" ")
        host, sep, port = endpoint.strip().rpartition(":")
        if not (name and sep and host and port.isdigit()):
            raise ConfigError(f"{_at(where)}: cluster_peer needs {_NEEDS[d.kind]} with an "
                              f"integer port, got {text!r}")
        return ClusterPeer(name=name, host=host, port=int(port))
    if d.kind == REALM_PEER:
        from repro.federation.realms import parse_realm_peer

        try:
            return parse_realm_peer(text, where)
        except PolicyError as exc:
            raise ConfigError(str(exc)) from exc
    return (where, text) if d.kind == QOS_CLASS else text


def _parse_cluster(knobs: dict) -> ClusterConfig | None:
    if not knobs:
        return None
    node_name, peers = knobs.get("node_name"), knobs.get("peers", ())
    if not node_name:
        raise ConfigError("cluster configuration needs cluster_node_name")
    if node_name not in {p.name for p in peers}:
        raise ConfigError(f"cluster_node_name {node_name!r} is not among the cluster_peer entries")
    if len({p.name for p in peers}) != len(peers):
        raise ConfigError("duplicate cluster_peer names")
    if not knobs.get("secret"):
        raise ConfigError("cluster configuration needs cluster_secret (hex)")
    try:
        knobs["secret"] = bytes.fromhex(knobs["secret"])
    except ValueError as exc:
        raise ConfigError("cluster_secret must be hexadecimal") from exc
    if len(knobs["secret"]) < 16:
        raise ConfigError("cluster_secret must be at least 16 bytes of entropy")
    # Electorate = every node plus the coordinator's own witness vote.
    electorate = len(peers) + 1
    if not 1 <= knobs.get("quorum", 1) <= electorate:
        raise ConfigError(f"cluster_quorum must lie in 1..{electorate} "
                          f"({len(peers)} nodes + the coordinator witness)")
    return ClusterConfig(**knobs)


def parse_config(text: str, overrides: dict[str, list[str]] | None = None) -> ServerConfig:
    """Parse directive text into policy plus optional cluster membership.

    ``overrides`` maps directive names to ``myproxy-server`` flag values:
    parsed and bounded like file lines, they replace the file's values.
    """
    settings: dict[Directive, object] = {}

    def take(d: Directive, text: str, where: int | str) -> None:
        value = _value(d, text, where)
        if d.kind in _REPEATABLE:
            settings.setdefault(d, []).append(value)
        else:
            settings[d] = value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, _, value = raw.split("#", 1)[0].strip().partition(" ")
        if key and key not in _BY_NAME:
            raise ConfigError(f"line {lineno}: unknown directive {key!r}")
        if key:
            take(_BY_NAME[key], value.strip().strip('"'), lineno)
    for name, values in (overrides or {}).items():
        settings.pop(_BY_NAME[name], None)
        for value in values:
            take(_BY_NAME[name], value, cli_flag(_BY_NAME[name]))

    parts: dict[str, dict] = {target: {} for target in _TARGETS}
    for d, value in settings.items():
        if d.kind == ACL:
            value = AccessControlList(value, name=d.name)
        elif d.kind == QOS_CLASS:
            value = _parse_qos_classes(value)
        elif d.kind in _REPEATABLE:
            value = tuple(value)
        target, field = d.target.split(".")
        parts[target][field] = value
    policy = ServerPolicy(passphrase_policy=PassphrasePolicy(**parts["passphrase"]),
                          **parts["policy"])
    if parts["server"].get("realm_peers") and not policy.federation_enabled:
        raise ConfigError("realm_peer directives require the federation directive")
    return ServerConfig(policy=policy, cluster=_parse_cluster(parts["cluster"]),
                        storage=StorageConfig(**parts["storage"]), **parts["server"])


def parse_server_config(text: str) -> ServerPolicy:
    """Parse directive text into a fully-populated policy (legacy surface)."""
    return parse_config(text).policy


def load_server_config(path: str | Path) -> ServerPolicy:
    return parse_config(Path(path).read_text("utf-8")).policy
