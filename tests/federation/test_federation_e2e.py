"""Two realms, one browser: the full cross-realm SSO delegation flow.

The PR's acceptance path: a user with a *web session* in realm alpha —
and no passphrase typed anywhere past login — ends up with a restricted,
short-lived proxy stored in realm beta's repository, retrievable there
by a beta service; revoking the session or bumping trust material
instantly blocks redemption; and every exchange is audited and counted.
"""

import json

import pytest

from repro.federation.gateway import FEDERATED_RESTRICTIONS
from repro.federation.sso import redeem_session
from repro.federation.testbed import FederatedTestbed
from repro.pki.proxy import effective_restrictions
from repro.util.errors import AuthenticationError

PASS = "correct horse 42"


@pytest.fixture()
def fed(clock, key_pool):
    with FederatedTestbed(clock=clock, key_source=key_pool) as testbed:
        yield testbed


@pytest.fixture()
def logged_in(fed):
    alpha = fed["alpha"]
    alice = alpha.tb.new_user("alice")
    alpha.tb.myproxy_init(alice, passphrase=PASS)
    browser = fed.browser()
    response = browser.post(
        "https://portal-alpha.example.org/login",
        {"username": "alice", "passphrase": PASS, "repository": "repo-0",
         "lifetime_hours": "2", "auth_method": "passphrase"},
    )
    assert response.status in (200, 302, 303)
    return fed, browser, alice


def redeem(fed, browser, *, to_realm="beta"):
    return redeem_session(browser, portal_host="portal-alpha.example.org",
                          gateway_host=fed["alpha"].gateway_host, realm=to_realm)


class TestRoundTrip:
    def test_browser_session_yields_peer_realm_credential(self, logged_in, clock):
        fed, browser, alice = logged_in
        out = redeem(fed, browser)
        assert out.realm == "beta"
        assert out.username == "alice"
        assert out.cred_name.startswith("fed-alpha-")

        # The deposit lives in *beta's* repository, under a machine
        # passphrase the user never typed; a beta job service retrieves it.
        beta = fed["beta"]
        svc = beta.tb.ca.issue_host_credential(
            "job.example.org", key=fed.key_source.new_key()
        )
        proxy = beta.tb.myproxy_get(
            username="alice", passphrase=out.passphrase,
            requester=svc, cred_name=out.cred_name,
        )
        assert str(proxy.identity) == str(alice.dn)
        assert proxy.seconds_remaining(clock) <= out.lifetime + 300

    def test_delegated_proxy_is_restricted(self, logged_in):
        fed, browser, _alice = logged_in
        out = redeem(fed, browser)
        beta = fed["beta"]
        svc = beta.tb.ca.issue_host_credential(
            "job.example.org", key=fed.key_source.new_key()
        )
        proxy = beta.tb.myproxy_get(
            username="alice", passphrase=out.passphrase,
            requester=svc, cred_name=out.cred_name,
        )
        effective = effective_restrictions(proxy.full_chain())
        assert effective.operations == FEDERATED_RESTRICTIONS.operations
        assert effective.resources == FEDERATED_RESTRICTIONS.resources
        # One hop was stored, the retrieval consumed it: the job's proxy
        # cannot delegate further.
        assert effective.max_delegation_depth == 0

    def test_exchange_is_audited_and_counted(self, logged_in):
        fed, browser, _alice = logged_in
        redeem(fed, browser)
        alpha, beta = fed["alpha"], fed["beta"]
        assert any(
            r.command == "FEDERATE" and r.ok for r in alpha.tb.myproxy.audit_log()
        )
        assert any(
            r.command == "CDP" and r.ok for r in beta.tb.myproxy.audit_log()
        )
        assert alpha.tb.myproxy.stats.snapshot()["federation_redemptions"] == 1
        assert beta.tb.myproxy.stats.snapshot()["cdp_delegations"] == 1
        families = alpha.tb.myproxy.metrics.snapshot()
        redeems = families["myproxy_federation_redeem_total"]
        assert redeems["outcome=ok"] == 1

    def test_realms_endpoint_lists_peers(self, fed):
        browser = fed.browser()
        response = browser.get("https://gateway-alpha.example.org/federation/realms")
        answer = json.loads(response.body.decode("utf-8"))
        assert answer["realm"] == "alpha" and answer["peers"] == ["beta"]


    def test_the_reader_raises_a_refused_assertion(self, fed):
        """``redeem_session`` reads the portal's refusal and raises it."""
        with pytest.raises(AuthenticationError, match="SSO assert refused: not logged in"):
            redeem_session(fed.browser(), portal_host="portal-alpha.example.org",
                           gateway_host=fed["alpha"].gateway_host, realm="beta")


class TestRevocation:
    def test_replayed_assertion_refused(self, logged_in):
        fed, browser, _alice = logged_in
        issued = browser.post(
            "https://portal-alpha.example.org/sso/assert", {"audience": "beta"}
        )
        token = json.loads(issued.body.decode("utf-8"))["assertion"]
        first = browser.post(
            "https://gateway-alpha.example.org/federation/redeem",
            {"assertion": token, "realm": "beta"},
        )
        assert json.loads(first.body.decode("utf-8"))["ok"]
        replay = browser.post(
            "https://gateway-alpha.example.org/federation/redeem",
            {"assertion": token, "realm": "beta"},
        )
        assert replay.status == 400
        assert "replay refused" in json.loads(replay.body.decode("utf-8"))["error"]

    def test_logout_blocks_redemption(self, logged_in):
        fed, browser, _alice = logged_in
        issued = browser.post(
            "https://portal-alpha.example.org/sso/assert", {"audience": "beta"}
        )
        token = json.loads(issued.body.decode("utf-8"))["assertion"]
        browser.post("https://portal-alpha.example.org/logout", {})
        denied = browser.post(
            "https://gateway-alpha.example.org/federation/redeem",
            {"assertion": token, "realm": "beta"},
        )
        assert denied.status == 403
        assert not json.loads(denied.body.decode("utf-8"))["ok"]

    def test_trust_generation_bump_blocks_redemption(self, logged_in, key_pool, clock):
        """New trust material orphans every outstanding assertion."""
        from repro.pki.ca import CertificateAuthority
        from repro.pki.names import DistinguishedName

        fed, browser, _alice = logged_in
        issued = browser.post(
            "https://portal-alpha.example.org/sso/assert", {"audience": "beta"}
        )
        token = json.loads(issued.body.decode("utf-8"))["assertion"]
        new_ca = CertificateAuthority(
            DistinguishedName.parse("/O=Grid/CN=Freshly Joined CA"),
            clock=clock, key=key_pool.new_key(),
        )
        fed["alpha"].tb.validator.add_anchor(new_ca.certificate)
        denied = browser.post(
            "https://gateway-alpha.example.org/federation/redeem",
            {"assertion": token, "realm": "beta"},
        )
        assert denied.status == 403
        assert any(
            r.command == "FEDERATE" and not r.ok
            for r in fed["alpha"].tb.myproxy.audit_log()
        )

    def test_expired_assertion_blocks_redemption(self, logged_in, clock):
        fed, browser, _alice = logged_in
        issued = browser.post(
            "https://portal-alpha.example.org/sso/assert", {"audience": "beta"}
        )
        answer = json.loads(issued.body.decode("utf-8"))
        clock.advance(answer["not_after"] - clock.now() + 1.0)
        denied = browser.post(
            "https://gateway-alpha.example.org/federation/redeem",
            {"assertion": answer["assertion"], "realm": "beta"},
        )
        assert denied.status == 403

    def test_audience_is_binding(self, logged_in):
        """An assertion minted for alpha is useless against beta."""
        fed, browser, _alice = logged_in
        issued = browser.post(
            "https://portal-alpha.example.org/sso/assert", {"audience": "alpha"}
        )
        token = json.loads(issued.body.decode("utf-8"))["assertion"]
        denied = browser.post(
            "https://gateway-alpha.example.org/federation/redeem",
            {"assertion": token, "realm": "beta"},
        )
        assert denied.status == 403

    def test_unknown_peer_realm_is_precise(self, logged_in):
        fed, browser, _alice = logged_in
        issued = browser.post(
            "https://portal-alpha.example.org/sso/assert", {"audience": "gamma"}
        )
        token = json.loads(issued.body.decode("utf-8"))["assertion"]
        denied = browser.post(
            "https://gateway-alpha.example.org/federation/redeem",
            {"assertion": token, "realm": "gamma"},
        )
        assert denied.status == 400
        assert "unknown peer realm" in json.loads(denied.body.decode("utf-8"))["error"]
