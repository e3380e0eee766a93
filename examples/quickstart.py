#!/usr/bin/env python3
"""Quickstart: the MyProxy core loop with the raw public API, over TCP.

Builds a tiny Grid from scratch — a CA, a user, a MyProxy repository — then
runs the paper's two figures:

  Figure 1  myproxy-init:             user  --delegate-->  repository
  Figure 2  myproxy-get-delegation:   portal <--delegate-- repository

and finally authenticates to the repository with the retrieved proxy,
proving it is a first-class Grid credential: the repository takes it for
alice herself.

Run:  python examples/quickstart.py
"""

from repro.core.client import MyProxyClient, myproxy_init_from_longterm
from repro.core.server import MyProxyServer
from repro.pki.ca import CertificateAuthority
from repro.pki.names import DistinguishedName
from repro.pki.validation import ChainValidator


def main() -> None:
    # --- the trust fabric (§2.1) -----------------------------------------
    ca = CertificateAuthority(DistinguishedName.parse("/O=Grid/CN=Demo CA"))
    validator = ChainValidator([ca.certificate])

    alice = ca.issue_credential(
        DistinguishedName.grid_user("Grid", "Demo", "Alice")
    )
    portal_cred = ca.issue_host_credential("portal.example.org")
    myproxy_cred = ca.issue_host_credential("myproxy.example.org")
    print(f"CA        : {ca.name}")
    print(f"user      : {alice.subject}")
    print(f"portal    : {portal_cred.subject}")

    # --- the repository (§4) ----------------------------------------------
    server = MyProxyServer(myproxy_cred, validator)
    endpoint = server.start()  # random loopback port
    print(f"repository: listening on {endpoint[0]}:{endpoint[1]}")

    try:
        # --- Figure 1: myproxy-init ---------------------------------------
        user_client = MyProxyClient(endpoint, alice, validator)
        response = myproxy_init_from_longterm(
            user_client,
            alice,
            username="alice",
            passphrase="correct horse battery 42",
            lifetime=7 * 86400.0,  # the paper's one-week default
        )
        print(f"\nFigure 1  PUT ok={response.ok} info={response.info}")

        # --- Figure 2: myproxy-get-delegation ------------------------------
        portal_client = MyProxyClient(endpoint, portal_cred, validator)
        proxy = portal_client.get_delegation(
            username="alice",
            passphrase="correct horse battery 42",
            lifetime=2 * 3600.0,  # "normally on the order of a few hours"
        )
        ident = validator.validate(proxy.full_chain())
        print(
            f"Figure 2  GET -> proxy for {ident.identity} "
            f"(depth {ident.proxy_depth}, "
            f"{proxy.seconds_remaining(server.clock) / 3600:.1f}h left)"
        )

        # --- the proxy is a working Grid credential -------------------------
        with MyProxyClient(endpoint, proxy, validator) as as_alice:
            rows = as_alice.info(username="alice")
        print(f"proxy     : the repository shows it alice's {len(rows)} credential(s)")
        assert [row.cred_name for row in rows] == ["default"]

        # --- housekeeping ----------------------------------------------------
        for row in user_client.info(username="alice"):
            print(
                f"info      : {row.cred_name} — "
                f"{row.seconds_remaining / 86400:.1f} days remaining"
            )
        user_client.destroy(username="alice")
        print("destroyed : the repository no longer holds alice's credential")
    finally:
        server.stop()


if __name__ == "__main__":
    main()
