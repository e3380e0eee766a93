"""``myproxy-admin`` — on-host repository administration.

Operates directly on a repository storage directory (the admin is on the
repository host, like the original ``myproxy-admin-query`` /
``myproxy-admin-purge`` tools); the server need not be running.
"""

from __future__ import annotations

import argparse

from repro.cli.common import run_tool
from repro.core.admin import RepositoryAdmin
from repro.core.segments import StorageConfig, migrate_spool_to_segments, open_repository
from repro.util.logging import configure_cli_logging


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="myproxy-admin", description="Administer a MyProxy storage directory."
    )
    parser.add_argument("--storage-dir", default=None, metavar="DIR",
                        help="credential store directory (required except for 'audit')")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="list stored credentials")
    query.add_argument("-l", "--username", default=None, help="filter by user")
    query.add_argument("--expired-only", action="store_true")

    sub.add_parser("stats", help="aggregate repository statistics")

    purge = sub.add_parser("purge", help="delete expired credentials")
    purge.add_argument("--grace-hours", type=float, default=1.0,
                       help="only purge entries dead for at least this long")

    remove = sub.add_parser("remove-user", help="delete all of a user's credentials")
    remove.add_argument("-l", "--username", required=True)

    cluster = sub.add_parser(
        "cluster-status",
        help="replication counters from a cluster state directory",
    )
    cluster.add_argument("--state-dir", required=True, metavar="DIR")

    metrics = sub.add_parser(
        "metrics",
        help="scrape a running server's /metrics endpoint and summarize it",
    )
    metrics.add_argument("--endpoint", required=True, metavar="HOST:PORT",
                         help="where myproxy-server --metrics-port is listening")
    metrics.add_argument("--raw", action="store_true",
                         help="print the raw Prometheus exposition text")
    metrics.add_argument("--slowlog", action="store_true",
                         help="print the slow-operation log (JSON lines) instead")

    scrub = sub.add_parser(
        "scrub",
        help="check every stored entry; list or discard quarantined ones",
    )
    scrub.add_argument("--list", action="store_true", dest="list_only",
                       help="only list quarantined entries (default action)")
    scrub.add_argument("--discard", action="store_true",
                       help="permanently delete quarantined files "
                            "(use after the entries were re-stored or repaired)")

    migrate = sub.add_parser(
        "migrate",
        help="convert a legacy one-file-per-credential spool to segments in place",
    )
    migrate.add_argument("--keep-spool", action="store_true",
                         help="leave the old per-credential files behind "
                              "(the storage.backend marker still flips reads "
                              "to segments)")
    migrate.add_argument("--segment-max-bytes", type=int,
                         default=StorageConfig.segment_max_bytes, metavar="BYTES",
                         help="roll segments at this size (default %(default)s)")

    audit = sub.add_parser("audit", help="inspect a persistent audit trail")
    audit.add_argument("--audit-file", required=True, metavar="JSONL")
    audit.add_argument("-l", "--username", default=None)
    audit.add_argument("--failures-only", action="store_true")
    audit.add_argument("--tail", type=int, default=None,
                       help="show only the last N records")
    return parser


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    return f"{value * 1000.0:.2f}ms"


def _hist_quantile(buckets: list[tuple[float, float]], q: float) -> float:
    """Linearly interpolated quantile from cumulative ``(le, count)`` rows."""
    total = buckets[-1][1]
    if total <= 0:
        return 0.0
    rank = q * total
    prev_bound, prev_cum = 0.0, 0.0
    for bound, cum in buckets:
        if cum >= rank:
            if bound == float("inf"):
                # Off the end of the finite buckets; the best estimate is
                # the largest finite boundary (matches Histogram.percentile).
                finite = [b for b, _ in buckets if b != float("inf")]
                return finite[-1] if finite else 0.0
            if cum == prev_cum:
                return bound
            return prev_bound + (bound - prev_bound) * (rank - prev_cum) / (cum - prev_cum)
        prev_bound, prev_cum = bound, cum
    return prev_bound


def _summarize_metrics(text: str) -> list[str]:
    """Human-oriented one-line-per-series view of exposition text."""
    from repro.obs import parse_exposition

    samples = parse_exposition(text)
    hist_bases = {
        name[: -len("_bucket")]
        for name, labels, _ in samples
        if name.endswith("_bucket") and "le" in labels
    }
    histograms: dict[tuple[str, tuple], dict] = {}
    lines: list[str] = []
    for name, labels, value in samples:
        if name.endswith("_bucket") and "le" in labels:
            le = labels.pop("le")
            key = (name[: -len("_bucket")], tuple(sorted(labels.items())))
            entry = histograms.setdefault(key, {"buckets": [], "sum": 0.0, "count": 0.0})
            entry["buckets"].append(
                (float("inf") if le == "+Inf" else float(le), value)
            )
        elif name.endswith("_sum") and name[: -len("_sum")] in hist_bases:
            key = (name[: -len("_sum")], tuple(sorted(labels.items())))
            histograms.setdefault(key, {"buckets": [], "sum": 0.0, "count": 0.0})["sum"] = value
        elif name.endswith("_count") and name[: -len("_count")] in hist_bases:
            key = (name[: -len("_count")], tuple(sorted(labels.items())))
            histograms.setdefault(key, {"buckets": [], "sum": 0.0, "count": 0.0})["count"] = value
        else:
            labeltext = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
            series = f"{name}{{{labeltext}}}" if labeltext else name
            lines.append(f"  {series} = {value:g}")
    for (base, labelpairs), entry in sorted(histograms.items()):
        labeltext = ",".join(f'{k}="{v}"' for k, v in labelpairs)
        series = f"{base}{{{labeltext}}}" if labeltext else base
        count = entry["count"]
        if count <= 0:
            lines.append(f"  {series} count=0")
            continue
        buckets = sorted(entry["buckets"])
        mean = entry["sum"] / count
        lines.append(
            f"  {series} count={count:g} mean={_fmt_seconds(mean)} "
            f"p50={_fmt_seconds(_hist_quantile(buckets, 0.50))} "
            f"p95={_fmt_seconds(_hist_quantile(buckets, 0.95))} "
            f"p99={_fmt_seconds(_hist_quantile(buckets, 0.99))}"
        )
    return lines


def _fmt_row(row) -> str:
    state = "EXPIRED" if row.expired else f"{row.seconds_remaining / 3600:.1f}h left"
    kind = "long-term" if row.long_term else "proxy"
    renewable = " renewable" if row.renewable else ""
    return (
        f"  {row.username}/{row.cred_name:<12} {kind:<9} "
        f"auth={row.auth_method:<10} {state}{renewable}  owner={row.owner_dn}"
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_cli_logging(args.verbose)

    def _body() -> None:
        if (
            args.command not in ("audit", "cluster-status", "metrics")
            and args.storage_dir is None
        ):
            raise SystemExit(f"--storage-dir is required for {args.command!r}")
        admin = (
            RepositoryAdmin(open_repository(args.storage_dir))
            if args.storage_dir is not None and args.command != "migrate"
            else None
        )
        if args.command == "query":
            rows = admin.list_expired() if args.expired_only else admin.list_all()
            if args.username:
                rows = [r for r in rows if r.username == args.username]
            if not rows:
                print("no matching credentials")
                return
            for row in rows:
                print(_fmt_row(row))
        elif args.command == "stats":
            for key, value in admin.stats().items():
                print(f"  {key}: {value}")
        elif args.command == "purge":
            removed = admin.purge_expired(grace=args.grace_hours * 3600.0)
            print(f"purged {len(removed)} expired credential(s)")
            for row in removed:
                print(_fmt_row(row))
        elif args.command == "remove-user":
            count = admin.remove_user(args.username)
            print(f"removed {count} credential(s) for {args.username}")
        elif args.command == "migrate":
            result = migrate_spool_to_segments(
                args.storage_dir,
                keep_spool=args.keep_spool,
                segment_max_bytes=args.segment_max_bytes,
            )
            if not result["migrated"]:
                print(f"nothing to do: {result['reason']}")
            else:
                print(
                    f"migrated {result['entries']} credential(s) to segments"
                    + (" (spool files kept)" if args.keep_spool
                       else " (spool files zeroized and removed)")
                )
        elif args.command == "scrub":
            repo = admin.repository
            # Opening the repository already ran recovery; this re-checks
            # every entry now and reports what sits in quarantine.
            summary = repo.scrub()
            print(f"checked {summary['checked']} entries, "
                  f"quarantined {summary['quarantined_now']} new "
                  f"({summary['quarantined_total']} total) "
                  f"in {summary['duration_seconds'] * 1000.0:.1f}ms")
            items = repo.quarantined()
            for item in items:
                who = (
                    f"{item.username}/{item.cred_name}"
                    if item.username
                    else item.path.name
                )
                print(f"  QUARANTINED {who}: {item.reason}")
            if args.discard:
                for item in items:
                    item.path.unlink(missing_ok=True)
                    item.path.with_name(item.path.name + ".reason").unlink(
                        missing_ok=True
                    )
                print(f"discarded {len(items)} quarantined file(s)")
            elif items:
                print("re-store these credentials (or repair from a cluster "
                      "peer via 'myproxy-cluster scrub'), then rerun with "
                      "--discard")
        elif args.command == "cluster-status":
            # The per-node ServerStats snapshots (replication counters
            # included) as the coordinator last published them.
            import json
            from pathlib import Path

            from repro.cli.myproxy_cluster import STATUS_FILE

            doc = json.loads(
                (Path(args.state_dir) / STATUS_FILE).read_text("utf-8")
            )
            print(f"failovers: {doc.get('failovers', 0)}")
            for name, row in sorted(doc.get("nodes", {}).items()):
                stats = row.get("stats", {})
                print(f"  {name}: lag={row.get('replica_lag', 0)} "
                      f"shipped={stats.get('replication_ops_shipped', 0)} "
                      f"applied={stats.get('replication_ops_applied', 0)} "
                      f"failures={stats.get('replication_failures', 0)} "
                      f"failovers_won={stats.get('failovers', 0)}")
        elif args.command == "metrics":
            from repro.obs import fetch_metrics

            host, sep, port_text = args.endpoint.rpartition(":")
            if not sep or not host:
                raise SystemExit(f"--endpoint must be HOST:PORT, got {args.endpoint!r}")
            try:
                port = int(port_text)
            except ValueError:
                raise SystemExit(f"--endpoint port must be an integer, got {port_text!r}")
            if args.slowlog:
                print(fetch_metrics(host, port, path="/slowlog"), end="")
                return
            text = fetch_metrics(host, port)
            if args.raw:
                print(text, end="")
                return
            for line in _summarize_metrics(text):
                print(line)
        elif args.command == "audit":
            from pathlib import Path

            from repro.core.server import AuditRecord

            records = [
                AuditRecord.from_json(line)
                for line in Path(args.audit_file).read_text("utf-8").splitlines()
                if line.strip()
            ]
            if args.username:
                records = [r for r in records if r.username == args.username]
            if args.failures_only:
                records = [r for r in records if not r.ok]
            if args.tail is not None:
                records = records[-args.tail:]
            if not records:
                print("no matching audit records")
                return
            for r in records:
                outcome = "OK  " if r.ok else "DENY"
                print(f"  {r.at:14.3f} {outcome} {r.command:<18} "
                      f"{r.username or '-':<12} peer={r.peer}  {r.detail}")

    return run_tool(_body, args)


if __name__ == "__main__":
    raise SystemExit(main())
