"""A portal holds a user's proxy no longer than the web session (§4.3, §5.2).

``portal.held_credentials()`` is exactly what an attacker who compromises
the portal host gets (§5.1), so the session's limit must hold for a user
who simply walks away: no later request may be needed to end it.  Over
TCP the web server's listener reaps expired sessions on its own tick.
"""

import json

from repro.federation.testbed import FederatedTestbed
from repro.testbed import GridTestbed
from repro.transport.listener import _TICK
from repro.util.concurrency import wait_for

PASS = "correct horse 42"
SESSION_TTL = 3600.0
LOGIN = {
    "username": "alice",
    "passphrase": PASS,
    "repository": "repo-0",
    "lifetime_hours": "2",
    "auth_method": "passphrase",
}
#: The listener reaps within two ticks; the rest is scheduling slack.
WITHIN_TWO_TICKS = 2 * _TICK + 0.1


def test_unseen_expiry_drops_the_held_proxy(clock, key_pool):
    with GridTestbed(transport="tcp", clock=clock, key_source=key_pool) as tb:
        alice = tb.new_user("alice")
        tb.myproxy_init(alice, passphrase=PASS)
        portal = tb.new_portal("portal", session_ttl=SESSION_TTL)
        browser = tb.browser()
        assert "Dashboard" in browser.post("https://portal.example.org/login", LOGIN).text
        assert portal.web.sessions.count() == 1
        assert len(portal.held_credentials()) == 1

        clock.advance(SESSION_TTL + 60.0)  # the user walked away; no request
        wait_for(
            lambda: portal.web.sessions.count() == 0,
            timeout=WITHIN_TWO_TICKS,
            message="the listener to reap the expired session",
        )
        assert portal.held_credentials() == {}


def test_unseen_expiry_revokes_sso_assertions(clock, key_pool):
    with FederatedTestbed(transport="tcp", clock=clock, key_source=key_pool) as fed:
        alpha, beta = fed["alpha"], fed["beta"]
        alice = alpha.tb.new_user("alice")
        alpha.tb.myproxy_init(alice, passphrase=PASS)
        browser = fed.browser()
        browser.post("https://portal-alpha.example.org/login", LOGIN)

        # Mint an assertion a minute before the session ends: it is
        # still within its own lifetime when the session dies.
        clock.advance(alpha.portal.config.session_ttl - 60.0)
        issued = browser.post(
            "https://portal-alpha.example.org/sso/assert", {"audience": "beta"}
        )
        token = json.loads(issued.body.decode("utf-8"))["assertion"]
        assert alpha.authority.outstanding() == 1

        clock.advance(120.0)  # no request: the session expires unseen
        wait_for(
            lambda: alpha.authority.outstanding() == 0,
            timeout=WITHIN_TWO_TICKS,
            message="the session's assertions to be revoked",
        )
        redeemed = browser.post(
            "https://gateway-alpha.example.org/federation/redeem",
            {"assertion": token, "realm": "beta"},
        )
        assert json.loads(redeemed.body.decode("utf-8"))["ok"] is False
        assert beta.tb.myproxy.stats.snapshot()["cdp_delegations"] == 0
        assert alpha.portal.held_credentials() == {}
