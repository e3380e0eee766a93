"""What the load generator points at: a self-hosted node or a live one.

Scenarios need three things from a target: a way to mint/register test
identities, a client factory that builds a :class:`MyProxyClient`
authenticated as a given credential, and (optionally) the server's obs
registry so the report can carry the server-side view.

- :class:`SelfHostedTarget` assembles a complete single-node deployment
  in-process via :class:`~repro.testbed.GridTestbed` — real TCP loopback
  by default (the deployment shape, and what the committed baselines
  measure), or dialled in process for deterministic tests on a
  :class:`~repro.util.clock.ManualClock`.

- :class:`ExternalTarget` drives an already-running ``myproxy-server``
  given its endpoint, the CA to trust, and a credential to authenticate
  as.  The operator's CA must also trust the loadgen's client
  credential, so external runs load *one* identity rather than minting a
  fleet; scenario setup registers whatever entries it needs through the
  normal protocol.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.client import ClientStats, MyProxyClient, RetryPolicy
from repro.core.policy import ServerPolicy
from repro.pki.credentials import Credential
from repro.pki.keys import KeySource, OneShotKeyPool, PooledKeySource
from repro.pki.validation import ChainValidator
from repro.testbed import GridTestbed, UserAccount
from repro.transport.tickets import TicketStore
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import ConfigError

#: Sheds must surface as ``busy`` samples, not be quietly retried away —
#: the loadgen is *measuring* the shed rate.
NO_BUSY_RETRY = RetryPolicy(busy_retries=0)

#: Key size for self-hosted runs: the benchmark convention (RSA-1024 via a
#: pre-generated pool) keeps key generation out of the measured path.
LOADGEN_KEY_BITS = 1024


class SelfHostedTarget:
    """A single-node repository assembled in-process for the run."""

    def __init__(
        self,
        *,
        transport: str = "tcp",
        clock: Clock = SYSTEM_CLOCK,
        key_pool: int = 32,
        key_source: PooledKeySource | None = None,
        policy: ServerPolicy | None = None,
        max_connections: int = 16,
        federation: bool = False,
    ) -> None:
        self.clock = clock
        self.federation = None
        if federation:
            # The portal-sso scenario needs two live realms; "repo-0" and
            # the identity surface below resolve to the primary realm.
            from repro.federation.testbed import FederatedTestbed

            self.federation = FederatedTestbed(
                transport=transport,
                clock=clock,
                key_source=key_source
                or PooledKeySource(LOADGEN_KEY_BITS, key_pool),
                myproxy_policy=policy,
            )
            self.testbed = self.federation["alpha"].tb
        else:
            self.testbed = GridTestbed(
                transport=transport,
                clock=clock,
                key_bits=LOADGEN_KEY_BITS,
                key_pool=key_pool,
                key_source=key_source,
                myproxy_policy=policy,
                start_grid_services=False,
            )
            self.testbed.myproxy.max_concurrent_connections = max_connections
            # ``max_concurrent_connections`` is consumed when the worker
            # pool spawns; for TCP that already happened inside
            # GridTestbed, so restart the server with the requested pool
            # size.  (Federated mode keeps the default pool: portals and
            # gateways captured the original endpoints at wiring time.)
            if transport == "tcp":
                server = self.testbed.myproxy
                server.stop()
                endpoint = server.start()
                self.testbed.myproxy_targets["repo-0"] = endpoint
        self.key_source = self.testbed.key_source
        self.client_stats = ClientStats()
        # One store for every client the run builds: repeat conversations
        # resume instead of re-running the full RSA handshake, exactly as
        # a long-lived portal process would.
        self.ticket_store = TicketStore()

    # -- identities ------------------------------------------------------

    def new_user(self, name: str) -> UserAccount:
        return self.testbed.new_user(name)

    def new_service_credential(self, host: str) -> Credential:
        """A portal/agent host credential the repository will trust."""
        return self.testbed.ca.issue_host_credential(
            host, key=self.key_source.new_key()
        )

    # -- clients ---------------------------------------------------------

    def client_for(self, credential: Credential) -> MyProxyClient:
        return MyProxyClient(
            self.testbed.myproxy_targets["repo-0"],
            credential,
            self.testbed.validator,
            clock=self.clock,
            key_source=self.key_source,
            retry=NO_BUSY_RETRY,
            stats=self.client_stats,
            ticket_store=self.ticket_store,
        )

    def client_for_realm(self, realm: str, credential: Credential) -> MyProxyClient:
        """A counted client against a *federated peer* realm's repository."""
        if self.federation is None:
            raise ConfigError("this target was not built with federation=True")
        tb = self.federation[realm].tb
        return MyProxyClient(
            tb.myproxy_targets["repo-0"],
            credential,
            tb.validator,
            clock=self.clock,
            key_source=self.key_source,
            retry=NO_BUSY_RETRY,
            stats=self.client_stats,
            ticket_store=self.ticket_store,
        )

    # -- observability ---------------------------------------------------

    def server_snapshot(self) -> dict:
        return self.testbed.myproxy.metrics.snapshot()

    def close(self) -> None:
        if self.federation is not None:
            self.federation.close()
        else:
            self.testbed.close()

    def __enter__(self) -> "SelfHostedTarget":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ExternalTarget:
    """A live ``myproxy-server`` something else is running."""

    def __init__(
        self,
        endpoint: tuple[str, int],
        *,
        ca_paths: list[str],
        credential_path: str,
        credential_passphrase: str | None = None,
        clock: Clock = SYSTEM_CLOCK,
        key_pool: int = 32,
        unsafe_key_reuse: bool = False,
    ) -> None:
        from repro.pki.certs import Certificate

        anchors = []
        for path in ca_paths:
            anchors.extend(Certificate.list_from_pem(Path(path).read_bytes()))
        if not anchors:
            raise ConfigError("external target needs at least one trusted CA")
        self.endpoint = endpoint
        self.clock = clock
        self.validator = ChainValidator(anchors, clock=clock)
        self.credential = Credential.import_pem(
            Path(credential_path).read_bytes(), credential_passphrase
        )
        # Against a *live* server every proxy key must be unique — leaking
        # one pooled key would compromise every delegation that reused it.
        # The one-shot pool keeps generation off the measured path without
        # recycling; ``unsafe_key_reuse`` restores the recycling pool for
        # throwaway test servers where max load matters more than hygiene.
        self.key_source: KeySource
        if unsafe_key_reuse:
            self.key_source = PooledKeySource(LOADGEN_KEY_BITS, size=key_pool)
        else:
            self.key_source = OneShotKeyPool(LOADGEN_KEY_BITS, size=key_pool)
        self.client_stats = ClientStats()
        self.ticket_store = TicketStore()

    def new_user(self, name: str) -> UserAccount:
        """Single-identity mode: every "user" is the provided credential.

        An external server only trusts identities its own CA issued, so
        the loadgen cannot mint a fleet.  Instead each scenario user is
        the operator's credential storing entries under a distinct
        username (``owner_dn`` is what authorizes later destroy/info, and
        that stays constant) — the keyspace is still ``users`` wide even
        though the authenticating DN is not.
        """
        return UserAccount(
            name=name,
            local_user=name,
            dn=self.credential.certificate.subject,
            credential=self.credential,
        )

    def new_service_credential(self, host: str) -> Credential:
        """The operator's credential plays the portal/agent role too."""
        return self.credential

    def client_for(self, credential: Credential) -> MyProxyClient:
        return MyProxyClient(
            self.endpoint,
            credential,
            self.validator,
            clock=self.clock,
            key_source=self.key_source,
            retry=NO_BUSY_RETRY,
            stats=self.client_stats,
            ticket_store=self.ticket_store,
        )

    def server_snapshot(self) -> dict:
        return {}  # a remote registry is scraped via its /metrics port, not here

    def close(self) -> None:
        if isinstance(self.key_source, OneShotKeyPool):
            self.key_source.close()

    def __enter__(self) -> "ExternalTarget":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
