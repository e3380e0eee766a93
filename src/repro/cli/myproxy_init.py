"""``myproxy-init`` — delegate a proxy to the repository (Figure 1)."""

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
from repro.core.client import MyProxyClient, myproxy_init_from_longterm
from repro.core.protocol import GSI, Reply


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="myproxy-init",
        description="Delegate a proxy credential to a MyProxy repository.",
    )
    add_common_args(parser)
    add_server_arg(parser)
    parser.add_argument("--credential", required=True, metavar="PEM",
                        help="your long-term credential file")
    parser.add_argument("--key-passphrase", default=None,
                        help="pass phrase of the credential file's key (prompted if omitted and needed)")
    parser.add_argument("-l", "--username", required=True,
                        help="the MyProxy user identity to register (§4.1)")
    parser.add_argument("--passphrase", default=None,
                        help="retrieval pass phrase (prompted if omitted)")
    parser.add_argument("-t", "--lifetime-days", type=float, default=7.0,
                        help="lifetime of the credential held by the repository")
    parser.add_argument("--max-get-lifetime-hours", type=float, default=None,
                        help="cap on proxies later delegated from it (§4.1)")
    parser.add_argument("--retriever", action="append", default=None, metavar="DN_GLOB",
                        help="restrict retrieval to matching DNs (repeatable)")
    parser.add_argument("-k", "--cred-name", default="default")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def _body() -> None:
        validator = build_validator(args)
        try:
            longterm = load_credential(args.credential, args.key_passphrase)
        except Exception:
            key_pass = prompt_passphrase(args, "key_passphrase", "Key pass phrase: ")
            longterm = load_credential(args.credential, key_pass)
        passphrase = prompt_passphrase(args, "passphrase", "MyProxy pass phrase: ")
        with MyProxyClient(parse_endpoint(args.server), longterm, validator) as client:
            response = myproxy_init_from_longterm(
                client,
                longterm,
                username=args.username,
                passphrase=passphrase,
                lifetime=args.lifetime_days * 86400.0,
                max_get_lifetime=(
                    args.max_get_lifetime_hours * 3600.0
                    if args.max_get_lifetime_hours is not None
                    else None
                ),
                retrievers=tuple(args.retriever) if args.retriever else None,
                cred_name=args.cred_name,
            )
        print(
            f"a proxy valid for {args.lifetime_days:g} days has been delegated "
            f"to {args.server} for user {args.username} "
            f"(cred_name={Reply.COMMIT.read(response.info, GSI).cred_name})"
        )

    return run_tool(_body, args)


if __name__ == "__main__":
    raise SystemExit(main())
