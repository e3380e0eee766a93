"""Two independent Grids, federated — the e2e fixture for this package.

:class:`FederatedTestbed` assembles N (default two) complete
:class:`~repro.testbed.GridTestbed` worlds, each with its **own CA**,
repository cluster, portal, and grid services, then federates them the
way two real realm operators would:

1. exchange trust roots (each realm's validator gains the other's CA
   anchor — the :mod:`repro.federation.realms` mechanism, inlined);
2. mount the IVOA CDP endpoints beside each realm's HTTP binding;
3. stand up an :class:`~repro.federation.sso.SsoAuthority` + assertion
   route on each realm's portal;
4. stand up a :class:`~repro.federation.gateway.FederationGateway` per
   realm whose peer map points at the *other* realms' CDP endpoints.

A browser from :meth:`browser` resolves hosts across every realm, so one
client can log in at ``portal-alpha.example.org`` and redeem at
``gateway-alpha.example.org`` exactly like the paper's Figure 3 flow —
extended one realm further.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.httpbinding import MyProxyHttpGateway
from repro.core.policy import ServerPolicy
from repro.federation.cdp import CdpService
from repro.federation.gateway import FederationGateway
from repro.federation.sso import SsoAuthority, enable_sso
from repro.pki.keys import PooledKeySource
from repro.portal.portal import GridPortal
from repro.testbed import TEST_KEY_BITS, GridTestbed, _PipeTarget, web_transport
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import ConfigError, TransportError
from repro.web.client import Browser, HttpTransport

DEFAULT_REALMS = ("alpha", "beta")


@dataclass
class FederatedRealm:
    """Everything one realm contributes to the federation."""

    name: str
    tb: GridTestbed
    http_gateway: MyProxyHttpGateway
    cdp: CdpService
    cdp_target: object
    portal: GridPortal
    authority: SsoAuthority
    gateway: FederationGateway = None  # wired after peers exist
    gateway_host: str = ""
    #: host name → object with a ``.web`` WebServer (portal + gateway).
    web_hosts: dict = field(default_factory=dict)


class FederatedTestbed:
    """N complete Grids with cross-realm trust and SSO federation."""

    def __init__(
        self,
        *,
        transport: str = "pipe",
        clock: Clock = SYSTEM_CLOCK,
        key_source: PooledKeySource | None = None,
        realm_names: tuple[str, ...] = DEFAULT_REALMS,
        myproxy_policy: ServerPolicy | None = None,
    ) -> None:
        if transport not in ("pipe", "tcp"):
            raise ConfigError(f"unknown transport {transport!r}")
        if len(realm_names) < 2:
            raise ConfigError("federation needs at least two realms")
        self.transport = transport
        self.clock = clock
        self.key_source = key_source or PooledKeySource(TEST_KEY_BITS, 16)
        self.realms: dict[str, FederatedRealm] = {}
        self._started: list = []

        from dataclasses import replace as _replace

        testbeds: dict[str, GridTestbed] = {}
        for name in realm_names:
            # Copy the template policy: realms must not share one object.
            policy = _replace(myproxy_policy) if myproxy_policy else ServerPolicy()
            policy.federation_enabled = True
            policy.realm_name = name
            testbeds[name] = GridTestbed(
                transport=transport,
                clock=clock,
                key_source=self.key_source,
                myproxy_policy=policy,
                ca_name=f"Realm {name.capitalize()} CA",
            )

        # Trust federation FIRST: every later artifact (assertions,
        # session tickets) pins the post-federation trust generation.
        for name, tb in testbeds.items():
            for other, other_tb in testbeds.items():
                if other != name:
                    tb.validator.add_anchor(other_tb.ca.certificate)

        # Per-realm protocol surface: HTTP binding + CDP, portal + SSO.
        for name, tb in testbeds.items():
            http_gateway = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)
            cdp = CdpService(http_gateway)
            if transport == "pipe":
                cdp_target: object = _PipeTarget(http_gateway)
            else:
                cdp_target = http_gateway.serve("127.0.0.1", 0)
            portal = tb.new_portal(f"portal-{name}")
            authority = SsoAuthority(
                realm=name,
                credential=portal.credential,
                validator=tb.validator,
                clock=clock,
                max_lifetime=tb.myproxy.policy.assertion_max_lifetime,
            )
            enable_sso(portal, authority)
            self.realms[name] = FederatedRealm(
                name=name,
                tb=tb,
                http_gateway=http_gateway,
                cdp=cdp,
                cdp_target=cdp_target,
                portal=portal,
                authority=authority,
                gateway_host=f"gateway-{name}.example.org",
                web_hosts={f"portal-{name}.example.org": portal},
            )

        # Federation gateways LAST: each needs every peer's CDP target.
        for name, realm in self.realms.items():
            tb = realm.tb
            gateway_cred = tb.ca.issue_host_credential(
                realm.gateway_host, key=self.key_source.new_key()
            )
            realm.gateway = FederationGateway(
                server=tb.myproxy,
                portal=realm.portal,
                authority=realm.authority,
                credential=gateway_cred,
                validator=tb.validator,
                peers={
                    other.name: other.cdp_target
                    for other in self.realms.values()
                    if other.name != name
                },
                key_source=tb.key_source,
            )
            realm.web_hosts[realm.gateway_host] = realm.gateway
            if transport == "tcp":
                realm.gateway.web.start_https()
                self._started.append(realm.gateway.web)

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------

    def __getitem__(self, realm: str) -> FederatedRealm:
        return self.realms[realm]

    def browser(self) -> Browser:
        """A browser that resolves portal + gateway hosts in every realm."""
        hosts: dict[str, object] = {}
        validators: dict[str, object] = {}
        for realm in self.realms.values():
            for host, service in realm.web_hosts.items():
                hosts[host] = service
                validators[host] = realm.tb.validator

        def _connect(scheme: str, host: str, port: int) -> HttpTransport:
            service = hosts.get(host)
            if service is None:
                raise TransportError(f"unknown host {host!r}")
            return web_transport(
                self.transport, service.web, scheme, host, validators[host]
            )

        return Browser(_connect)

    def sso_round_trip(
        self,
        browser: Browser,
        *,
        from_realm: str,
        to_realm: str,
        lifetime: float | None = None,
    ) -> dict:
        """assertion → redemption, using ``browser``'s live portal session.

        The browser must already be logged in at ``from_realm``'s portal.
        Returns the gateway's redemption answer (realm, cred_name,
        passphrase, …) for the caller to retrieve with.
        """
        import json

        issued = browser.post(
            f"https://portal-{from_realm}.example.org/sso/assert",
            {"audience": to_realm,
             **({"lifetime": str(lifetime)} if lifetime else {})},
        )
        answer = json.loads(issued.body.decode("utf-8"))
        if not answer.get("ok"):
            raise TransportError(f"assertion refused: {answer.get('error')}")
        redeemed = browser.post(
            f"https://{self.realms[from_realm].gateway_host}/federation/redeem",
            {"assertion": answer["assertion"], "realm": to_realm},
        )
        return json.loads(redeemed.body.decode("utf-8"))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        for web in self._started:
            web.stop()
        for realm in self.realms.values():
            realm.tb.close()

    def __enter__(self) -> FederatedTestbed:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
