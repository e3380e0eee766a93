"""``myproxy-change-pass-phrase`` — rotate a stored credential's secret."""

from __future__ import annotations

import argparse

from repro.cli.common import (
    add_common_args,
    add_server_arg,
    build_validator,
    load_credential,
    parse_endpoint,
    prompt_passphrase,
    run_tool,
)
from repro.core.client import MyProxyClient


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="myproxy-change-pass-phrase",
        description="Change the retrieval pass phrase of a stored credential.",
    )
    add_common_args(parser)
    add_server_arg(parser)
    parser.add_argument("--credential", required=True, metavar="PEM")
    parser.add_argument("--key-passphrase", default=None)
    parser.add_argument("-l", "--username", required=True)
    parser.add_argument("-k", "--cred-name", default="default")
    parser.add_argument("--old-passphrase", default=None)
    parser.add_argument("--new-passphrase", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def _body() -> None:
        client = MyProxyClient(
            parse_endpoint(args.server),
            load_credential(args.credential, args.key_passphrase),
            build_validator(args),
        )
        old = prompt_passphrase(args, "old_passphrase", "Current pass phrase: ")
        new = prompt_passphrase(args, "new_passphrase", "New pass phrase: ")
        with client:
            client.change_passphrase(
                username=args.username,
                old_passphrase=old,
                new_passphrase=new,
                cred_name=args.cred_name,
            )
        print("pass phrase changed")

    return run_tool(_body, args)


if __name__ == "__main__":
    raise SystemExit(main())
