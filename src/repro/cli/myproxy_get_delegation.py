"""``myproxy-get-delegation`` — retrieve a proxy (Figure 2)."""

from __future__ import annotations

import argparse
from pathlib import Path

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
from repro.core.protocol import AuthMethod


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="myproxy-get-delegation",
        description="Retrieve a delegated proxy from a MyProxy repository.",
    )
    add_common_args(parser)
    add_server_arg(parser)
    parser.add_argument("--credential", required=True, metavar="PEM",
                        help="the credential this client authenticates with "
                             "(e.g. the portal's host credential)")
    parser.add_argument("--key-passphrase", default=None,
                        help="pass phrase of the credential file's key, if encrypted")
    parser.add_argument("-l", "--username", required=True)
    parser.add_argument("--passphrase", default=None,
                        help="the retrieval secret (prompted if omitted)")
    parser.add_argument("-t", "--lifetime-hours", type=float, default=2.0)
    parser.add_argument("-k", "--cred-name", default="default")
    parser.add_argument("--auth-method", choices=[m.value for m in AuthMethod],
                        default="passphrase")
    parser.add_argument("-o", "--out", required=True, metavar="PEM",
                        help="file to write the delegated proxy to")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def _body() -> None:
        client = MyProxyClient(
            parse_endpoint(args.server),
            load_credential(args.credential, args.key_passphrase),
            build_validator(args),
        )
        passphrase = prompt_passphrase(args, "passphrase", "MyProxy pass phrase: ")
        with client:
            proxy = client.get_delegation(
                username=args.username,
                passphrase=passphrase,
                lifetime=args.lifetime_hours * 3600.0,
                cred_name=args.cred_name,
                auth_method=AuthMethod(args.auth_method),
            )
        out = Path(args.out)
        out.write_bytes(proxy.export_pem())
        out.chmod(0o600)
        print(f"a proxy for {proxy.identity} has been written to {out}")

    return run_tool(_body, args)


if __name__ == "__main__":
    raise SystemExit(main())
