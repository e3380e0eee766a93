"""``myproxy-info`` — list your stored credentials."""

from __future__ import annotations

import argparse

from repro.cli.common import (
    add_common_args,
    add_server_arg,
    build_validator,
    load_credential,
    parse_endpoint,
    run_tool,
)
from repro.core.client import MyProxyClient


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="myproxy-info",
        description="Show the credentials you own in a MyProxy repository.",
    )
    add_common_args(parser)
    add_server_arg(parser)
    parser.add_argument("--credential", required=True, metavar="PEM")
    parser.add_argument("--key-passphrase", default=None)
    parser.add_argument("-l", "--username", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def _body() -> None:
        with MyProxyClient(
            parse_endpoint(args.server),
            load_credential(args.credential, args.key_passphrase),
            build_validator(args),
        ) as client:
            rows = client.info(username=args.username)
        if not rows:
            print(f"no credentials stored for {args.username}")
            return
        print(f"credentials stored for {args.username}:")
        for row in rows:
            kind = "long-term" if row.long_term else "proxy"
            print(
                f"  {row.cred_name:<16} {kind:<9} auth={row.auth_method:<10} "
                f"{row.seconds_remaining / 3600.0:8.1f}h remaining  "
                f"max-get={row.max_get_lifetime / 3600.0:.1f}h"
            )

    return run_tool(_body, args)


if __name__ == "__main__":
    raise SystemExit(main())
