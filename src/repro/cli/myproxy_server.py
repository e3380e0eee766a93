"""``myproxy-server`` — run the online credential repository (§4.1)."""

from __future__ import annotations

import argparse
import time

from repro.cli.common import add_common_args, build_validator, load_credential, run_tool
from repro.core.policy import ServerPolicy
from repro.core.segments import open_repository
from repro.core.server import MyProxyServer
from repro.gsi.acl import AccessControlList


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="myproxy-server",
        description="Run a MyProxy online credential repository.",
    )
    add_common_args(parser)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7512)  # the historical port
    parser.add_argument(
        "--credential", required=True, metavar="PEM", help="the repository's host credential"
    )
    parser.add_argument(
        "--storage-dir", required=True, metavar="DIR",
        help="credential store directory (segment files)",
    )
    parser.add_argument(
        "--config", default=None, metavar="FILE",
        help="myproxy-server.config-style policy file (flags below override it)",
    )
    parser.add_argument(
        "--audit-file", default=None, metavar="JSONL",
        help="append a persistent audit trail here (inspect with myproxy-admin audit)",
    )
    parser.add_argument(
        "--accepted-credentials",
        action="append",
        default=None,
        metavar="DN_GLOB",
        help="who may delegate to this repository (repeatable; default: anyone)",
    )
    parser.add_argument(
        "--authorized-retrievers",
        action="append",
        default=None,
        metavar="DN_GLOB",
        help="who may retrieve delegations (repeatable; default: anyone)",
    )
    parser.add_argument(
        "--max-stored-lifetime-days", type=float, default=None,
        help="cap on credentials delegated to the repository (paper default: one week)",
    )
    parser.add_argument(
        "--max-delegation-lifetime-hours", type=float, default=None,
        help="cap on proxies delegated from the repository",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus metrics at http://HOST:PORT/metrics "
             "(overrides the metrics_port config directive)",
    )
    parser.add_argument(
        "--slow-op-threshold", type=float, default=None, metavar="SECONDS",
        help="log operations slower than this (overrides slow_op_threshold)",
    )
    parser.add_argument(
        "--max-connections", type=int, default=64, metavar="N",
        help="worker pool size: concurrent conversations served (default 64)",
    )
    parser.add_argument(
        "--listen-backlog", type=int, default=None, metavar="N",
        help="TCP accept backlog (overrides listen_backlog)",
    )
    parser.add_argument(
        "--connection-timeout", type=float, default=None, metavar="SECONDS",
        help="per-connection socket timeout (overrides connection_timeout)",
    )
    parser.add_argument(
        "--qos-rate", type=float, default=None, metavar="PER_SECOND",
        help="base per-identity admission rate; 0 disables rate limiting "
             "(overrides qos_rate)",
    )
    parser.add_argument(
        "--qos-burst", type=float, default=None, metavar="TOKENS",
        help="base per-identity burst capacity (overrides qos_burst)",
    )
    parser.add_argument(
        "--qos-queue-depth", type=int, default=None, metavar="N",
        help="admission queue bound; 0 disables queueing (overrides qos_queue_depth)",
    )
    parser.add_argument(
        "--qos-queue-deadline", type=float, default=None, metavar="SECONDS",
        help="shed connections queued longer than this (overrides qos_queue_deadline)",
    )
    parser.add_argument(
        "--qos-class", action="append", default=None, metavar='"NAME WEIGHT DN_GLOB"',
        help="weighted service class (repeatable; overrides qos_class directives)",
    )
    parser.add_argument(
        "--session-ticket-lifetime", type=float, default=None, metavar="SECONDS",
        help="session-resumption ticket lifetime "
             "(overrides session_ticket_lifetime)",
    )
    parser.add_argument(
        "--disable-session-tickets", action="store_true",
        help="never issue or accept resumption tickets "
             "(overrides disable_session_tickets)",
    )
    parser.add_argument(
        "--keypair-pool", type=int, default=None, metavar="N",
        help="pre-generate delegation keypairs in the background; each is "
             "used once; 0 generates inline (overrides keypair_pool)",
    )
    parser.add_argument(
        "--federation", action="store_true",
        help="serve the HTTPS binding + IVOA CDP endpoints and load peer "
             "realm trust roots (overrides the federation directive)",
    )
    parser.add_argument(
        "--federation-port", type=int, default=7513, metavar="PORT",
        help="port for the HTTPS binding / CDP endpoint set (default 7513)",
    )
    parser.add_argument(
        "--realm-name", default=None, metavar="NAME",
        help="this deployment's federation realm (overrides realm_name)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def _body() -> None:
        cluster_cfg = None
        realm_peers = ()
        metrics_port = args.metrics_port
        storage_cfg = None
        if args.config:
            from repro.core.config import load_config

            config = load_config(args.config)
            policy = config.policy
            cluster_cfg = config.cluster
            realm_peers = config.realm_peers
            storage_cfg = config.storage
            if metrics_port is None:
                metrics_port = config.metrics_port
        else:
            policy = ServerPolicy()
        if args.federation:
            policy.federation_enabled = True
        if args.realm_name is not None:
            policy.realm_name = args.realm_name
        if args.slow_op_threshold is not None:
            policy.slow_op_threshold = args.slow_op_threshold
        if args.listen_backlog is not None:
            policy.listen_backlog = args.listen_backlog
        if args.connection_timeout is not None:
            policy.connection_timeout = args.connection_timeout
        if args.qos_rate is not None:
            policy.qos_rate = args.qos_rate
        if args.qos_burst is not None:
            policy.qos_burst = args.qos_burst
        if args.qos_queue_depth is not None:
            policy.qos_queue_depth = args.qos_queue_depth
        if args.qos_queue_deadline is not None:
            policy.qos_queue_deadline = args.qos_queue_deadline
        if args.qos_class:
            from repro.core.config import _parse_qos_classes

            policy.qos_classes = _parse_qos_classes(
                list(enumerate(args.qos_class, start=1))
            )
        if args.session_ticket_lifetime is not None:
            policy.session_ticket_lifetime = args.session_ticket_lifetime
        if args.disable_session_tickets:
            policy.session_tickets = False
        if args.keypair_pool is not None:
            policy.keypair_pool_size = args.keypair_pool
        if args.max_stored_lifetime_days is not None:
            policy.max_stored_lifetime = args.max_stored_lifetime_days * 86400.0
        if args.max_delegation_lifetime_hours is not None:
            policy.max_delegation_lifetime = args.max_delegation_lifetime_hours * 3600.0
        if args.accepted_credentials:
            policy.accepted_credentials = AccessControlList(
                args.accepted_credentials, name="accepted_credentials"
            )
        if args.authorized_retrievers:
            policy.authorized_retrievers = AccessControlList(
                args.authorized_retrievers, name="authorized_retrievers"
            )
        from repro.core.repository import SecretBox

        master_box = None
        if cluster_cfg is not None:
            # Every cluster member must seal OTP/site keys under the same
            # master key, or a promoted replica could not open them.
            from repro.cluster.cluster import cluster_master_box

            master_box = cluster_master_box(cluster_cfg.secret)
        repository = open_repository(args.storage_dir, storage=storage_cfg)
        server = MyProxyServer(
            load_credential(args.credential),
            build_validator(args),
            repository=repository,
            policy=policy,
            audit_path=args.audit_file,
            master_box=master_box or SecretBox(),
            max_concurrent_connections=args.max_connections,
        )
        # Opening the store ran crash recovery; surface what it found.
        recovery = repository.stats.snapshot()
        print(
            f"segment recovery ({len(repository.segment_info())} segment(s), "
            f"{repository.count()} entries): "
            f"{recovery['torn_truncated']} torn tail(s) truncated, "
            f"{recovery['quarantined']} entr(ies) quarantined "
            f"in {recovery['last_recovery_seconds'] * 1000.0:.1f}ms"
        )
        if recovery["quarantined"]:
            print("run 'myproxy-admin scrub --list' to inspect "
                  "quarantined entries")
        if cluster_cfg is not None:
            server.cluster_role = "member"
            server.cluster_peers = cluster_cfg.peer_names()
        host, port = server.start(args.host, args.port)
        if policy.federation_enabled:
            from repro.core.httpbinding import MyProxyHttpGateway
            from repro.federation.cdp import CdpService
            from repro.federation.realms import distribute_trust

            if realm_peers:
                n_roots = distribute_trust(server.validator, list(realm_peers))
                print(
                    f"federation: trusted {n_roots} root(s) from "
                    f"{len(realm_peers)} peer realm(s)"
                )
            http_gateway = MyProxyHttpGateway(server)
            CdpService(http_gateway)
            fhost, fport = http_gateway.serve(args.host, args.federation_port)
            print(
                f"federation realm {policy.realm_name!r}: HTTPS binding + "
                f"CDP at https://{fhost}:{fport}/cdp/*"
            )
        if cluster_cfg is not None:
            print(
                f"cluster node {cluster_cfg.node_name} of "
                f"{', '.join(cluster_cfg.peer_names())} "
                f"(rf={cluster_cfg.replication_factor})"
            )
        print(f"myproxy-server listening on {host}:{port}")
        if metrics_port is not None:
            mhost, mport = server.start_metrics_endpoint(args.host, metrics_port)
            print(f"metrics at http://{mhost}:{mport}/metrics")
        try:
            while True:
                time.sleep(3600)
        finally:
            server.stop()

    return run_tool(_body, args)


if __name__ == "__main__":
    raise SystemExit(main())
