"""``myproxy-server`` — run the online credential repository (§4.1)."""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.cli.common import add_common_args, build_validator, load_credential, run_tool
from repro.core.config import (
    ACL, DIRECTIVES, FLAG, INTEGER, NUMBER, QOS_CLASS, STRING, cli_flag, parse_config,
)
from repro.core.segments import open_repository
from repro.core.server import DEFAULT_MAX_CONNECTIONS, MyProxyServer

#: Directive rows with a flag; each flag is generated from its row.
_FLAGGED = tuple(d for d in DIRECTIVES if d.flag)
_METAVARS = {NUMBER: "NUMBER", INTEGER: "N", STRING: "NAME", ACL: "DN_GLOB",
             QOS_CLASS: '"NAME WEIGHT DN_GLOB"'}


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
        "--max-connections", type=int, default=DEFAULT_MAX_CONNECTIONS, metavar="N",
        help="worker pool size: concurrent conversations served "
             f"(default {DEFAULT_MAX_CONNECTIONS})",
    )
    parser.add_argument(
        "--federation-port", type=int, default=7513, metavar="PORT",
        help="port for the HTTPS binding / CDP endpoint set (default 7513)",
    )
    for d in _FLAGGED:
        if d.kind == FLAG:
            form = {"action": "store_true"}
        else:
            form = {"action": "append" if d.kind in (ACL, QOS_CLASS) else "store",
                    "default": None, "metavar": _METAVARS[d.kind],
                    "type": {NUMBER: float, INTEGER: int}.get(d.kind)}
        parser.add_argument(cli_flag(d), help=f"{d.help} (overrides {d.name})", **form)
    return parser


def flag_overrides(args: argparse.Namespace) -> dict[str, list[str]]:
    """The directive values given as flags, as text for ``parse_config``."""
    overrides = {}
    for d in _FLAGGED:
        value = getattr(args, d.name)
        if value is not None and value is not False:
            text = "" if value is True else str(value)
            overrides[d.name] = value if isinstance(value, list) else [text]
    return overrides


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def _body() -> None:
        text = Path(args.config).read_text("utf-8") if args.config else ""
        # Flags go through the file's parser and bounds, after the file.
        config = parse_config(text, flag_overrides(args))
        policy, cluster_cfg = config.policy, config.cluster
        from repro.core.repository import SecretBox

        master_box = None
        if cluster_cfg is not None:
            # Every cluster member must seal OTP/site keys under the same
            # master key, or a promoted replica could not open them.
            from repro.cluster.cluster import cluster_master_box

            master_box = cluster_master_box(cluster_cfg.secret)
        repository = open_repository(args.storage_dir, storage=config.storage)
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

            if config.realm_peers:
                n_roots = distribute_trust(server.validator, list(config.realm_peers))
                print(
                    f"federation: trusted {n_roots} root(s) from "
                    f"{len(config.realm_peers)} peer realm(s)"
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
        if config.metrics_port is not None:
            mhost, mport = server.start_metrics_endpoint(args.host, config.metrics_port)
            print(f"metrics at http://{mhost}:{mport}/metrics")
        try:
            while True:
                time.sleep(3600)
        finally:
            server.stop()

    return run_tool(_body, args)


if __name__ == "__main__":
    raise SystemExit(main())
