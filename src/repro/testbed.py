"""A complete in-process Grid, assembled in one call.

:class:`GridTestbed` wires together everything the paper's figures need —
a CA, users, one or more MyProxy repositories, a GRAM job service, a mass
storage service, Grid portals and browsers — each server on its own
listener, dialled in process (``transport="pipe"``, the default for tests)
or over TCP loopback (what the benchmarks measure).

Typical use::

    with GridTestbed() as tb:
        alice = tb.new_user("alice")
        tb.myproxy_init(alice, passphrase="correct horse 42")        # Figure 1
        portal = tb.new_portal("portal")
        browser = tb.browser()
        browser.post(f"https://{portal.host}/login", {                # Figure 3
            "username": "alice", "passphrase": "correct horse 42",
            "repository": "repo-0", "lifetime_hours": "2",
            "auth_method": "passphrase",
        })
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.client import MyProxyClient, myproxy_init_from_longterm
from repro.core.policy import ServerPolicy
from repro.core.protocol import Response
from repro.core.server import MyProxyServer
from repro.grid.gram import GramClient, GramService
from repro.grid.storage import StorageClient, StorageService
from repro.gsi.gridmap import GridMap
from repro.pki.ca import CertificateAuthority
from repro.pki.credentials import Credential
from repro.pki.keys import PooledKeySource
from repro.pki.names import DistinguishedName
from repro.pki.validation import ChainValidator
from repro.portal.portal import GridPortal, PortalConfig
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import ConfigError, TransportError
from repro.web.client import (
    Browser,
    HttpTransport,
    LinkTransport,
    RawTcpTransport,
    SecureTransport,
)
from repro.transport.tickets import TicketStore

TEST_KEY_BITS = 1024


@dataclass
class UserAccount:
    """One Grid user: long-term credential plus gridmap account."""

    name: str
    local_user: str
    dn: DistinguishedName
    credential: Credential
    #: The §4.1 MyProxy retrieval secret last used for this user (test aid).
    myproxy_passphrase: str = ""


def web_transport(transport: str, web, scheme: str, validator) -> HttpTransport:
    """A browser's connection to web server ``web`` over the testbed's
    ``transport``: its TCP endpoint, or dialled in process."""
    if transport == "tcp":
        if scheme == "https":
            return SecureTransport(web.https_endpoint, validator)
        return RawTcpTransport(*web.http_endpoint)
    link = web.connect(scheme)
    return SecureTransport(link, validator) if scheme == "https" else LinkTransport(link)


class GridTestbed:
    """The whole paper's world in one object."""

    def __init__(
        self,
        *,
        transport: str = "pipe",
        clock: Clock = SYSTEM_CLOCK,
        key_bits: int = TEST_KEY_BITS,
        key_pool: int = 16,
        key_source: PooledKeySource | None = None,
        n_repositories: int = 1,
        myproxy_policy: ServerPolicy | None = None,
        myproxy_metrics_registry=None,
        start_grid_services: bool = True,
        ca_name: str = "Testbed CA",
    ) -> None:
        if transport not in ("pipe", "tcp"):
            raise ConfigError(f"unknown transport {transport!r}")
        self.transport = transport
        self.clock = clock
        self.key_bits = key_bits
        # Sharing one pre-generated pool across many testbeds keeps key
        # generation out of the measured/tested paths.
        self.key_source = key_source or PooledKeySource(key_bits, key_pool)
        self._servers: list = []  # what close() stops

        # -- trust fabric ----------------------------------------------------
        # Federated testbeds give each realm its own CA *name*: two
        # anchors with identical subjects cannot coexist in one trust
        # store (issuer lookup is by subject DN).
        self.ca = CertificateAuthority(
            DistinguishedName.parse(f"/O=Grid/OU=Repro/CN={ca_name}"),
            key_bits=key_bits,
            clock=clock,
        )
        self.validator = ChainValidator([self.ca.certificate], clock=clock)
        self.gridmap = GridMap()
        self.users: dict[str, UserAccount] = {}
        # One shared ticket store: every client this testbed builds can
        # resume sessions earned by earlier clients against the same
        # repository (the portal shape — many short-lived clients, one
        # long-lived process).
        self.ticket_store = TicketStore()

        # -- MyProxy repositories (§3.3: multiple per portal) -------------------
        self.myproxy_servers: list[MyProxyServer] = []
        self.myproxy_targets: dict[str, object] = {}
        for i in range(n_repositories):
            cred = self.ca.issue_host_credential(
                f"myproxy{i}.example.org", key=self.key_source.new_key()
            )
            server = MyProxyServer(
                cred,
                self.validator,
                policy=myproxy_policy,
                clock=clock,
                key_source=self.key_source,
                metrics_registry=myproxy_metrics_registry,
            )
            self.myproxy_servers.append(server)
            self.myproxy_targets[f"repo-{i}"] = self._serve(server)

        self.myproxy = self.myproxy_servers[0]

        # -- Grid services ----------------------------------------------------
        self.gram: GramService | None = None
        self.storage: StorageService | None = None
        self.gram_target = None
        self.storage_target = None
        if start_grid_services:
            storage_cred = self.ca.issue_host_credential(
                "storage.example.org", key=self.key_source.new_key()
            )
            self.storage = StorageService(
                "mass-storage", storage_cred, self.validator, self.gridmap,
                clock=clock, key_source=self.key_source,
            )
            self.storage_target = self._serve(self.storage)
            gram_cred = self.ca.issue_host_credential(
                "gram.example.org", key=self.key_source.new_key()
            )
            self.gram = GramService(
                "gram",
                gram_cred,
                self.validator,
                self.gridmap,
                clock=clock,
                key_source=self.key_source,
                storage_target=self.storage_target,
            )
            self.gram_target = self._serve(self.gram)

        # -- portals and browsers ------------------------------------------------
        self.portals: dict[str, GridPortal] = {}
        self._web_hosts: dict[str, GridPortal] = {}

    # ------------------------------------------------------------------
    # transports
    # ------------------------------------------------------------------

    def _serve(self, server) -> object:
        """Return a connect target for ``server`` (one with ``start`` and
        ``connect``), and stop it at :meth:`close`."""
        self._servers.append(server)
        return server.connect if self.transport == "pipe" else server.start()

    # ------------------------------------------------------------------
    # users (§2.1: credentials from the CA, accounts from the gridmap)
    # ------------------------------------------------------------------

    def new_user(self, name: str, *, local_user: str | None = None) -> UserAccount:
        local = local_user or name
        dn = DistinguishedName.grid_user("Grid", "Repro", name.capitalize())
        credential = self.ca.issue_credential(
            dn, key_bits=self.key_bits, key=self.key_source.new_key()
        )
        self.gridmap.add(dn, local)
        account = UserAccount(
            name=name, local_user=local, dn=dn, credential=credential
        )
        self.users[name] = account
        return account

    # ------------------------------------------------------------------
    # MyProxy conveniences
    # ------------------------------------------------------------------

    def myproxy_client(
        self, credential: Credential, repository: str = "repo-0"
    ) -> MyProxyClient:
        return MyProxyClient(
            self.myproxy_targets[repository],
            credential,
            self.validator,
            clock=self.clock,
            key_source=self.key_source,
            ticket_store=self.ticket_store,
        )

    def myproxy_init(
        self,
        user: UserAccount,
        *,
        passphrase: str,
        username: str | None = None,
        repository: str = "repo-0",
        **kwargs,
    ) -> Response:
        """Figure 1: user delegates a one-week proxy to the repository."""
        user.myproxy_passphrase = passphrase
        client = self.myproxy_client(user.credential, repository)
        return myproxy_init_from_longterm(
            client,
            user.credential,
            username=username or user.name,
            passphrase=passphrase,
            key_source=self.key_source,
            **kwargs,
        )

    def myproxy_get(
        self,
        *,
        username: str,
        passphrase: str,
        requester: Credential,
        repository: str = "repo-0",
        **kwargs,
    ) -> Credential:
        """Figure 2: an authorized client retrieves a delegation."""
        client = self.myproxy_client(requester, repository)
        return client.get_delegation(
            username=username, passphrase=passphrase, **kwargs
        )

    # ------------------------------------------------------------------
    # Grid service clients
    # ------------------------------------------------------------------

    def gram_client(self, credential: Credential) -> GramClient:
        return GramClient(self.gram_target, credential, self.validator)

    def storage_client(self, credential: Credential) -> StorageClient:
        return StorageClient(self.storage_target, credential, self.validator)

    # ------------------------------------------------------------------
    # portals and browsers (Figure 3)
    # ------------------------------------------------------------------

    def new_portal(
        self,
        name: str,
        *,
        https_only: bool = True,
        session_ttl: float = 3600.0,
        repositories: list[str] | None = None,
    ) -> GridPortal:
        host = f"{name}.example.org"
        credential = self.ca.issue_host_credential(host, key=self.key_source.new_key())
        targets = {
            label: self.myproxy_targets[label]
            for label in (repositories or list(self.myproxy_targets))
        }
        portal = GridPortal(
            PortalConfig(
                name=name,
                myproxy_targets=targets,
                gram_target=self.gram_target,
                storage_target=self.storage_target,
                https_only=https_only,
                session_ttl=session_ttl,
            ),
            credential,
            self.validator,
            clock=self.clock,
            key_source=self.key_source,
        )
        portal.host = host  # type: ignore[attr-defined]
        self._servers.append(portal.web)
        if self.transport == "tcp":
            portal.web.start_http()
            portal.web.start_https()
        self.portals[name] = portal
        self._web_hosts[host] = portal
        return portal

    def browser(self) -> Browser:
        """A standard browser wired to this testbed's portals."""

        def _connect(scheme: str, host: str, port: int) -> HttpTransport:
            portal = self._web_hosts.get(host)
            if portal is None:
                raise TransportError(f"unknown host {host!r}")
            return web_transport(self.transport, portal.web, scheme, self.validator)

        return Browser(_connect)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        for server in self._servers:
            server.stop()

    def __enter__(self) -> GridTestbed:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
