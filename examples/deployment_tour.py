#!/usr/bin/env python3
"""An operator's tour: deploying MyProxy the way a 2001 Grid site would.

Everything runs over real loopback TCP with on-disk state, exercising the
deployment-facing surfaces: a hashed trust directory, the on-disk segment store,
ACL policy, the HTTP protocol binding (§6.4), renewal-by-possession (§6.6)
and `myproxy-admin`-style grooming.

Run:  python examples/deployment_tour.py
"""

import tempfile
from pathlib import Path

from repro.core.admin import MaintenanceAgent, RepositoryAdmin
from repro.core.client import MyProxyClient, myproxy_init_from_longterm
from repro.core.httpbinding import HttpMyProxyClient, MyProxyHttpGateway
from repro.core.policy import ServerPolicy
from repro.core.protocol import AuthMethod
from repro.core.segments import open_repository
from repro.core.server import MyProxyServer
from repro.gsi.acl import AccessControlList
from repro.pki.ca import CertificateAuthority
from repro.pki.names import DistinguishedName
from repro.pki.trustdir import TrustDirectory

PASS = "correct horse battery 42"


def main() -> None:
    state = Path(tempfile.mkdtemp(prefix="myproxy-site-"))
    print(f"site state under {state}")

    # -- 1. trust fabric: a CA and a hashed trust directory -------------------
    ca = CertificateAuthority(DistinguishedName.parse("/O=ExampleGrid/CN=Site CA"))
    trustdir = TrustDirectory(state / "certificates")
    trustdir.install_ca(ca.certificate)
    trustdir.install_crl(ca.crl())
    validator = trustdir.build_validator()
    print(f"trust directory: {sorted(p.name for p in trustdir.root.iterdir())}")

    # -- 2. the repository: segment store, explicit ACLs -----------------------
    policy = ServerPolicy(
        accepted_credentials=AccessControlList(
            ["/O=ExampleGrid/OU=People/CN=*"], name="accepted_credentials"
        ),
        authorized_retrievers=AccessControlList(
            ["/O=ExampleGrid/CN=host/*", "/O=ExampleGrid/OU=People/CN=*"],
            name="authorized_retrievers",
        ),
    )
    server = MyProxyServer(
        ca.issue_host_credential("myproxy.examplegrid.org"),
        validator,
        repository=open_repository(state / "store"),
        policy=policy,
    )
    endpoint = server.start()
    print(f"myproxy-server on {endpoint[0]}:{endpoint[1]}, store at {state / 'store'}")

    # -- 3. a user enrolls and delegates (classic protocol) ---------------------
    alice = ca.issue_credential(
        DistinguishedName.parse("/O=ExampleGrid/OU=People/CN=Alice")
    )
    client = MyProxyClient(endpoint, alice, validator)
    myproxy_init_from_longterm(
        client, alice, username="alice", passphrase=PASS,
        renewers=("/O=ExampleGrid/OU=People/CN=Alice",),  # enable §6.6 renewal
    )
    print("alice delegated a renewable one-week credential (channel protocol)")

    # -- 4. the §6.4 HTTP binding serves the same store, stopped with it ------------
    gw_endpoint = MyProxyHttpGateway(server).serve("127.0.0.1", 0)
    portal_cred = ca.issue_host_credential("portal.examplegrid.org")
    with HttpMyProxyClient(gw_endpoint, portal_cred, validator) as http_client:
        proxy = http_client.get_delegation(username="alice", passphrase=PASS,
                                           lifetime=2 * 3600)
    print(f"HTTP binding GET -> proxy for {proxy.identity} "
          f"({proxy.seconds_remaining(server.clock) / 3600:.1f}h)")

    # -- 5. renewal-by-possession: no pass phrase needed ---------------------------
    renewer = MyProxyClient(endpoint, proxy, validator)
    fresh = renewer.get_delegation(
        username="alice", auth_method=AuthMethod.RENEWAL, lifetime=2 * 3600
    )
    print(f"renewal-by-possession -> fresh proxy, expires "
          f"{fresh.certificate.not_after - proxy.certificate.not_after:+.0f}s later")

    # -- 6. the operator grooms the store --------------------------------------------
    admin = RepositoryAdmin(server.repository)
    for row in admin.list_all():
        print(f"admin sees: {row.username}/{row.cred_name} "
              f"auth={row.auth_method} renewable={row.renewable} "
              f"{row.seconds_remaining / 86400:.1f}d left")
    print(f"admin stats: {admin.stats()}")
    groomer = MaintenanceAgent(admin)
    print(f"maintenance pass purged {groomer.run_once()} expired entries")

    # -- 7. audit trail ------------------------------------------------------------------
    print("audit tail:")
    for record in server.audit_log()[-4:]:
        print(f"  {'OK ' if record.ok else 'DENY'} {record.command:<8} "
              f"{record.username:<8} peer={record.peer}")

    server.stop()
    server.repository.close()


if __name__ == "__main__":
    main()
