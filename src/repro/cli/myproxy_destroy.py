"""``myproxy-destroy`` — remove a stored credential (§4.1)."""

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
        prog="myproxy-destroy",
        description="Destroy a credential previously delegated to a repository.",
    )
    add_common_args(parser)
    add_server_arg(parser)
    parser.add_argument("--credential", required=True, metavar="PEM")
    parser.add_argument("--key-passphrase", default=None)
    parser.add_argument("-l", "--username", required=True)
    parser.add_argument("-k", "--cred-name", default="default")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def _body() -> None:
        with MyProxyClient(
            parse_endpoint(args.server),
            load_credential(args.credential, args.key_passphrase),
            build_validator(args),
        ) as client:
            client.destroy(username=args.username, cred_name=args.cred_name)
        print(f"credential {args.username}/{args.cred_name} destroyed")

    return run_tool(_body, args)


if __name__ == "__main__":
    raise SystemExit(main())
