"""``myproxy-store`` — park a long-term credential with the repository (§6.1).

The private key is encrypted under the pass phrase *before* it leaves this
machine; the repository can mint proxies from it on demand (and only while
a retrieval presents the pass phrase), but never sees the plaintext key.
"""

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
        prog="myproxy-store",
        description="Store a long-term credential with a MyProxy repository.",
    )
    add_common_args(parser)
    add_server_arg(parser)
    parser.add_argument("--credential", required=True, metavar="PEM")
    parser.add_argument("--key-passphrase", default=None,
                        help="pass phrase of the credential file's key")
    parser.add_argument("-l", "--username", required=True)
    parser.add_argument("--passphrase", default=None,
                        help="repository retrieval pass phrase (prompted if omitted)")
    parser.add_argument("-k", "--cred-name", default="default")
    parser.add_argument("--max-get-lifetime-hours", type=float, default=None)
    parser.add_argument("--retriever", action="append", default=None,
                        metavar="DN_GLOB")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def _body() -> None:
        key_pass = args.key_passphrase
        try:
            longterm = load_credential(args.credential, key_pass)
        except Exception:
            key_pass = prompt_passphrase(args, "key_passphrase", "Key pass phrase: ")
            longterm = load_credential(args.credential, key_pass)
        passphrase = prompt_passphrase(args, "passphrase", "MyProxy pass phrase: ")
        with MyProxyClient(
            parse_endpoint(args.server), longterm, build_validator(args)
        ) as client:
            client.store_longterm(
                longterm,
                username=args.username,
                passphrase=passphrase,
                cred_name=args.cred_name,
                max_get_lifetime=(
                    args.max_get_lifetime_hours * 3600.0
                    if args.max_get_lifetime_hours is not None
                    else None
                ),
                retrievers=tuple(args.retriever) if args.retriever else None,
            )
        print(
            f"long-term credential for {longterm.identity} stored at "
            f"{args.server} as {args.username}/{args.cred_name}"
        )

    return run_tool(_body, args)


if __name__ == "__main__":
    raise SystemExit(main())
