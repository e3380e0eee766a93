"""Portal-side SSO: exchange a live web session for a one-shot assertion.

GridCertLib's observation (arXiv:1101.4116) is that a science-gateway
user has already authenticated — to the *web portal* — and should never
retype a Grid passphrase.  Here the portal, which holds the user's
MyProxy-delegated proxy for the life of the web session (§5.2), mints a
signed :mod:`assertion <repro.federation.assertions>` vouching for that
session, and the :class:`SsoAuthority` keeps the server-side record that
makes each assertion:

- **single-use** — redemption consumes the record; a replay gets a
  distinct refusal (the token is a bearer secret its holder legitimately
  had, so precision is actionable, not an oracle);
- **session-bound** — destroying the web session (logout, TTL expiry,
  admin action) revokes every assertion minted from it, through the
  same ``on_destroy`` hook that wipes the portal's credential map.

The authority is deliberately in-process with the portal and the
federation gateway of one realm: the paper's portal already shares fate
with its session store, and an assertion's session linkage never
travels on the wire (the token carries the assertion id only).
"""

from __future__ import annotations

import threading

from repro.core.protocol import Reply, parse_json, refused
from repro.federation.assertions import (
    DEFAULT_MAX_LIFETIME,
    SsoAssertion,
    issue_assertion,
)
from repro.portal.portal import GridPortal
from repro.util.errors import AuthenticationError, PolicyError, ProtocolError
from repro.util.logging import get_logger
from repro.web.http11 import HttpResponse
from repro.web.server import WebContext

logger = get_logger("federation.sso")

#: Consumed/expired records linger this long so replays stay precise.
RECORD_GRACE = 3600.0


class SsoAuthority:
    """Issues assertions for live portal sessions; enforces one-shot use."""

    def __init__(
        self,
        *,
        realm: str,
        credential,
        validator,
        clock,
        max_lifetime: float = DEFAULT_MAX_LIFETIME,
    ) -> None:
        self.realm = realm
        self.credential = credential
        self.validator = validator
        self.clock = clock
        self.max_lifetime = max_lifetime
        #: assertion id → {"session_id", "not_after", "consumed"}
        self._records: dict[str, dict] = {}
        #: session id → assertion ids minted from it (for revocation)
        self._by_session: dict[str, set[str]] = {}
        self._lock = threading.Lock()

    # -- issuing ---------------------------------------------------------------

    def issue_for_session(
        self,
        session_id: str,
        *,
        subject: str,
        username: str,
        audience: str,
        lifetime: float | None = None,
    ) -> tuple[str, SsoAssertion]:
        if not audience:
            raise ProtocolError("an assertion needs an audience realm")
        if lifetime is None or lifetime <= 0:
            lifetime = self.max_lifetime
        if lifetime > self.max_lifetime:
            raise PolicyError(
                f"assertion lifetime {lifetime:.0f}s exceeds the "
                f"{self.max_lifetime:.0f}s cap"
            )
        token, assertion = issue_assertion(
            self.credential,
            subject=subject,
            username=username,
            realm=self.realm,
            audience=audience,
            lifetime=lifetime,
            trust_generation=self.validator.generation,
            clock=self.clock,
        )
        with self._lock:
            self._reap()
            self._records[assertion.assertion_id] = {
                "session_id": session_id,
                "not_after": assertion.not_after,
                "consumed": False,
            }
            self._by_session.setdefault(session_id, set()).add(
                assertion.assertion_id
            )
        return token, assertion

    # -- revocation / redemption ----------------------------------------------

    def revoke_session(self, session_id: str) -> None:
        """Drop every assertion minted from ``session_id`` (on_destroy hook)."""
        with self._lock:
            for assertion_id in self._by_session.pop(session_id, ()):
                self._records.pop(assertion_id, None)

    def check_and_consume(self, assertion: SsoAssertion) -> str:
        """Redeem an (already signature-verified) assertion exactly once.

        Returns the web session id it was minted from.  Unknown or
        revoked ids fail generically; a replay of a known-consumed id is
        named precisely.
        """
        now = self.clock.now()
        with self._lock:
            self._reap()
            record = self._records.get(assertion.assertion_id)
            if record is None:
                raise AuthenticationError("unknown or revoked assertion")
            if record["consumed"]:
                raise ProtocolError("assertion already redeemed (replay refused)")
            if record["not_after"] <= now:
                raise AuthenticationError("assertion expired")
            record["consumed"] = True
            return record["session_id"]

    def outstanding(self) -> int:
        with self._lock:
            return sum(1 for r in self._records.values() if not r["consumed"])

    def _reap(self) -> None:
        now = self.clock.now()
        dead = [
            aid for aid, r in self._records.items()
            if r["not_after"] + RECORD_GRACE <= now
        ]
        for assertion_id in dead:
            record = self._records.pop(assertion_id)
            ids = self._by_session.get(record["session_id"])
            if ids is not None:
                ids.discard(assertion_id)
                if not ids:
                    del self._by_session[record["session_id"]]


def enable_sso(portal: GridPortal, authority: SsoAuthority) -> None:
    """Mount ``POST /sso/assert`` on ``portal`` and wire revocation.

    The route exchanges a logged-in web session for an assertion token:
    it requires the same HTTPS discipline as login (§5.2 — the token is
    a bearer secret), a *live* session credential, and returns JSON so
    portal-side JavaScript or the load generator can drive it.
    """
    def _assert(ctx: WebContext) -> HttpResponse:
        if portal.config.https_only and not ctx.secure:
            return HttpResponse.error(
                403, "SSO assertions require an SSL-secured connection (HTTPS)"
            )
        held = portal._credential_for(ctx)
        if held is None:
            return HttpResponse.json(refused("not logged in"), 401)
        _repo, credential = held
        form = ctx.request.form
        audience = form.get("audience", "").strip()
        lifetime = None
        if form.get("lifetime"):
            try:
                lifetime = float(form["lifetime"])
            except ValueError:
                return HttpResponse.error(400, "bad lifetime")
        try:
            token, assertion = authority.issue_for_session(
                ctx.session.session_id,
                subject=str(credential.identity),
                username=str(ctx.session.data.get("username", "")),
                audience=audience,
                lifetime=lifetime,
            )
        except (ProtocolError, PolicyError) as exc:
            return HttpResponse.json(refused(str(exc)), 400)
        logger.info(
            "issued assertion %s for %r toward realm %r",
            assertion.assertion_id, assertion.username, audience,
        )
        return HttpResponse.json(Reply.ASSERTION.body(
            assertion=token, assertion_id=assertion.assertion_id,
            audience=assertion.audience, not_after=assertion.not_after,
        ))

    portal.web.add_route("POST", "/sso/assert", _assert)
    portal.web.sessions.on_destroy.append(authority.revoke_session)


def redeem_session(
    browser, *, portal_host: str, gateway_host: str, realm: str,
    lifetime: float | None = None,
):
    """assertion → redemption with ``browser``'s live session at
    ``portal_host``, redeemed toward ``realm`` at ``gateway_host``: the
    gateway's :attr:`~repro.core.protocol.Reply.REDEEMED` read, for the
    caller to retrieve with.  A refusal raises
    :class:`~repro.util.errors.AuthenticationError`, a malformed reply
    :class:`~repro.util.errors.ProtocolError`."""
    form = {"audience": realm, **({"lifetime": str(lifetime)} if lifetime else {})}
    issued = _read(browser.post(f"https://{portal_host}/sso/assert", form), Reply.ASSERTION)
    redeemed = browser.post(
        f"https://{gateway_host}/federation/redeem",
        {"assertion": issued.assertion, "realm": realm},
    )
    return _read(redeemed, Reply.REDEEMED)


def _read(response: HttpResponse, reply: Reply):
    answer = parse_json(response.body, f"{reply.answers} reply", dict)
    status = Reply.STATUS.read(answer)
    if not status.ok:
        raise AuthenticationError(f"{reply.answers} refused: {status.error}")
    return reply.read(answer)
