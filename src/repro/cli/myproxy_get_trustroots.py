"""``myproxy-get-trustroots`` — sync a local trust directory from a repository.

Routine use is CRL refresh; with ``--bootstrap-ca`` a host that trusts only
the repository's own CA (installed out of band) can learn the rest of the
federation's anchors.
"""

from __future__ import annotations

import argparse

from repro.cli.common import (
    add_server_arg,
    build_validator,
    load_credential,
    parse_endpoint,
    run_tool,
)
from repro.core.client import MyProxyClient
from repro.pki.trustdir import TrustDirectory
from repro.util.logging import configure_cli_logging


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="myproxy-get-trustroots",
        description="Fetch CA certificates and CRLs from a MyProxy repository.",
    )
    add_server_arg(parser)
    parser.add_argument("--trusted-ca", action="append", default=None, metavar="PEM",
                        help="CA certificate(s) used to authenticate the repository")
    parser.add_argument("--trusted-ca-dir", default=None, metavar="DIR",
                        help="existing trust directory to authenticate with")
    parser.add_argument("--out-dir", required=True, metavar="DIR",
                        help="trust directory to install the fetched material into")
    parser.add_argument("--credential", default=None, metavar="PEM",
                        help="optional client credential (anonymous if omitted)")
    parser.add_argument("--key-passphrase", default=None)
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_cli_logging(args.verbose)

    def _body() -> None:
        validator = build_validator(args)
        credential = (
            load_credential(args.credential, args.key_passphrase)
            if args.credential
            else None
        )
        with MyProxyClient(parse_endpoint(args.server), credential, validator) as client:
            cas, crls = client.refresh_trust_directory(TrustDirectory(args.out_dir))
        print(f"installed {cas} CA certificate(s) and {crls} CRL(s) into {args.out_dir}")

    return run_tool(_body, args)


if __name__ == "__main__":
    raise SystemExit(main())
