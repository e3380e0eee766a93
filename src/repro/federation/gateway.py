"""The federation gateway: redeem an SSO assertion across realms.

The grid-gateway pattern (arXiv:1204.6629): a mediating service that
holds no long-term user secrets, but can — for the duration of a live
web session — turn *proof of local authentication* into *usable
credentials elsewhere*.  Concretely, one redemption:

1. verifies the assertion token end to end (signature, chain against
   the local trust roots, audience = the requested peer realm, validity
   window) — :func:`repro.federation.assertions.verify_assertion`;
2. refuses assertions minted under a different trust generation, so
   revoking a CA or publishing a CRL instantly invalidates everything
   outstanding;
3. checks the issuing portal against the ``federation_portals`` ACL;
4. consumes the server-side record (single-use; replays get a distinct
   refusal) and resolves it to the portal's live web session —
   destroyed sessions have no credential, so logout revokes federation;
5. signs a **restricted** short-lived proxy with the session credential
   and deposits it in the peer realm over CDP, under a machine-generated
   one-shot passphrase that is returned to the caller;
6. audits the exchange and counts it in ``/metrics``, success or not.

The deposited proxy is narrowed to the federation operation set and one
further delegation hop — enough for the peer repository to hand it to a
job, not enough to impersonate the user broadly (§6.5 restricted
delegation doing exactly what it was added for).
"""

from __future__ import annotations

import secrets
import time

from repro.core.protocol import Reply, read_seconds, refused
from repro.core.server import MyProxyServer
from repro.federation.assertions import verify_assertion
from repro.federation.cdp import CdpClient
from repro.federation.sso import SsoAuthority
from repro.pki.credentials import Credential
from repro.pki.proxy import ProxyRestrictions, issuance_bound
from repro.pki.validation import ChainValidator
from repro.portal.portal import GridPortal
from repro.util.errors import (
    AuthenticationError,
    AuthorizationError,
    CredentialError,
    NotFoundError,
    PolicyError,
    ProtocolError,
    ReproError,
)
from repro.util.logging import get_logger
from repro.web.http11 import HttpResponse
from repro.web.server import WebContext, WebServer

logger = get_logger("federation.gateway")

_GENERIC_DENIAL = "federation redemption refused"

#: What a federated proxy may do in the peer realm: storage-flavoured
#: operations against the bulk store, and exactly one more delegation
#: hop (repository → job).
FEDERATED_RESTRICTIONS = ProxyRestrictions(
    operations=frozenset({"store", "fetch", "list"}),
    resources=frozenset({"mass-storage"}),
    max_delegation_depth=1,
)


class FederationGateway:
    """Redeems portal SSO assertions into credentials in peer realms."""

    def __init__(
        self,
        *,
        server: MyProxyServer,
        portal: GridPortal,
        authority: SsoAuthority,
        credential: Credential,
        validator: ChainValidator,
        peers: dict[str, object],
        key_source=None,
    ) -> None:
        self.server = server
        self.portal = portal
        self.authority = authority
        self.credential = credential
        self.validator = validator
        self.peers = dict(peers)
        self.key_source = key_source
        self.realm = server.policy.realm_name
        self.clock = server.clock
        self.web = WebServer(
            f"federation-{self.realm}",
            clock=server.clock,
            credential=credential,
            validator=validator,
        )
        self._redeem_total = server.metrics.counter(
            "myproxy_federation_redeem_total",
            "Federation assertion redemptions by outcome.",
            labelnames=("outcome",),
        )
        self._redeem_seconds = server.metrics.histogram(
            "myproxy_federation_redeem_seconds",
            "End-to-end federation redemption latency (verify + CDP deposit).",
        )
        self.web.add_route("POST", "/federation/redeem", self._redeem)
        self.web.add_route("GET", "/federation/realms", self._realms)

    # -- routes ----------------------------------------------------------------

    def _realms(self, ctx: WebContext) -> HttpResponse:
        return HttpResponse.json(Reply.REALMS.body(realm=self.realm, peers=sorted(self.peers)))

    def _redeem(self, ctx: WebContext) -> HttpResponse:
        started = time.perf_counter()
        outcome = "error"
        try:
            response = self._redeem_inner(ctx)
            outcome = "ok" if response.status == 200 else "denied"
            return response
        except (PolicyError, ProtocolError) as exc:
            # Precise refusals: the caller held a legitimate token and
            # the reason (replay, lifetime cap, bad field) is actionable.
            outcome = "rejected"
            return HttpResponse.json(refused(str(exc)), 400)
        except (
            AuthenticationError, AuthorizationError, CredentialError, NotFoundError,
        ) as exc:
            outcome = "denied"
            self.server.audit(
                "<federation>", "FEDERATE", "", "", False, str(exc)
            )
            return HttpResponse.json(refused(_GENERIC_DENIAL), 403)
        finally:
            self._redeem_total.labels(outcome=outcome).inc()
            self._redeem_seconds.observe(time.perf_counter() - started)

    def _redeem_inner(self, ctx: WebContext) -> HttpResponse:
        if not ctx.secure:
            return HttpResponse.json(refused("redemption requires HTTPS"), 403)
        form = ctx.request.form
        token = form.get("assertion", "")
        target_realm = form.get("realm", "").strip()
        if not token or not target_realm:
            raise ProtocolError("assertion and realm are required")
        peer_target = self.peers.get(target_realm)
        if peer_target is None:
            raise ProtocolError(f"unknown peer realm {target_realm!r}")
        policy = self.server.policy

        assertion, signer = verify_assertion(
            token, self.validator,
            audience=target_realm,
            clock=self.clock,
            max_lifetime=policy.assertion_max_lifetime,
        )
        # Trust-generation pinning: new anchors/CRLs orphan every
        # assertion minted before them (same rule as session tickets).
        if assertion.trust_generation != self.validator.generation:
            raise AuthenticationError("assertion predates a trust-material change")
        if not policy.federation_portals.allows(signer.identity):
            raise AuthorizationError(
                f"portal {signer.identity} may not vouch for sessions"
            )

        session_id = self.authority.check_and_consume(assertion)
        session_proxy = self.portal.credential_for_session(session_id)
        if session_proxy is None:
            raise AuthenticationError("web session revoked or expired")
        if str(session_proxy.identity) != assertion.subject:
            raise AuthenticationError("session credential does not match assertion")

        # Refused before the peer realm is asked for anything.
        most, asked = policy.federation_delegation_lifetime, form.get("lifetime")
        try:
            lifetime = issuance_bound(
                session_proxy, read_seconds(asked, "lifetime") if asked else most,
                self.clock.now(), maximum=most,
            ).lifetime
        except (PolicyError, ProtocolError) as exc:
            raise ProtocolError(f"bad lifetime: {exc}") from None
        passphrase = secrets.token_urlsafe(18)
        cred_name = f"fed-{self.realm}-{assertion.assertion_id[:8]}"

        try:
            # One deposit's client: closing it leaves no kept channel behind.
            with CdpClient(
                peer_target, session_proxy, self.validator,
                key_source=self.key_source, clock=self.clock,
            ) as client:
                _delegation_id, deposited = client.delegate(
                    session_proxy,
                    username=assertion.username,
                    passphrase=passphrase,
                    lifetime=lifetime,
                    cred_name=cred_name,
                    restrictions=FEDERATED_RESTRICTIONS,
                )
        except ReproError as exc:
            self.server.audit(
                str(signer.identity), "FEDERATE", assertion.username, cred_name,
                False, f"CDP deposit to realm {target_realm!r} failed: {exc}",
            )
            raise AuthenticationError(f"peer realm refused the deposit: {exc}") from exc

        self.server.stats.inc("federation_redemptions")
        self.server.audit(
            str(signer.identity), "FEDERATE", assertion.username, cred_name, True,
            f"assertion {assertion.assertion_id} redeemed into realm "
            f"{target_realm!r}, stored until {deposited.not_after:.0f}",
        )
        logger.info(
            "redeemed assertion %s: %r now holds %r in realm %r",
            assertion.assertion_id, assertion.username, cred_name, target_realm,
        )
        return HttpResponse.json(Reply.REDEEMED.body(
            realm=target_realm, username=assertion.username, cred_name=cred_name,
            passphrase=passphrase, lifetime=lifetime, not_after=deposited.not_after,
        ))
