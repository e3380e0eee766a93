"""``myproxy-retrieve`` — fetch a stored long-term credential back (§6.1).

The key arrives still encrypted under the retrieval pass phrase; this tool
writes the file exactly as received (use your pass phrase locally to unlock
it, as with any credential file).
"""

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="myproxy-retrieve",
        description="Retrieve a stored long-term credential from a repository.",
    )
    add_common_args(parser)
    add_server_arg(parser)
    parser.add_argument("--credential", required=True, metavar="PEM",
                        help="credential this client authenticates with")
    parser.add_argument("--key-passphrase", default=None)
    parser.add_argument("-l", "--username", required=True)
    parser.add_argument("--passphrase", default=None)
    parser.add_argument("-k", "--cred-name", default="default")
    parser.add_argument("-o", "--out", required=True, metavar="PEM")
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
            credential = client.retrieve_longterm(
                username=args.username, passphrase=passphrase, cred_name=args.cred_name
            )
        out = Path(args.out)
        out.write_bytes(credential.export_pem(passphrase))
        out.chmod(0o600)
        print(f"credential for {credential.identity} written to {out} "
              f"(key remains encrypted under your pass phrase)")

    return run_tool(_body, args)


if __name__ == "__main__":
    raise SystemExit(main())
