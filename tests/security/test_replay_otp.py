"""S5 (§5.1/§5.2): replay attacks, and the one-time-password fix.

"The compromised pass phrase could be used in a replay attack against the
portal.  Using a one-time password would lift this HTTPS restriction."
"""

import pytest

from repro.attacks.eavesdrop import WireCapture, tap_web_connector
from repro.attacks.replay import replay_http_request, strip_cookies
from repro.core.otp import OTPGenerator
from repro.core.protocol import AuthMethod
from repro.pki.proxy import create_proxy
from repro.web.client import Browser
from repro.web.http11 import HttpRequest

PASS = "hunter7 grid pass"


def login_form(username, secret, method="passphrase"):
    return {
        "username": username,
        "passphrase": secret,
        "repository": "repo-0",
        "lifetime_hours": "2",
        "auth_method": method,
    }


@pytest.fixture()
def world(tb, key_pool, clock):
    alice = tb.new_user("alice")
    tb.myproxy_init(alice, passphrase=PASS)
    portal = tb.new_portal("portal", https_only=False)  # worst-case config
    capture = WireCapture("sniffer")
    victim = Browser(tap_web_connector(portal, capture, tb.validator))
    return tb, portal, victim, capture


def attacker_transport(tb, portal):
    """The attacker opens their own (even HTTPS) connection to the portal."""
    from repro.attacks.eavesdrop import WireCapture, tap_web_connector

    connector = tap_web_connector(portal, WireCapture("unused"), tb.validator)
    return lambda: connector("https", "portal.example.org", 443)


class TestStaticPassphraseReplay:
    def test_sniffed_login_replays_successfully(self, world):
        """With static pass phrases, the §5.1 residual risk is real."""
        tb, portal, victim, capture = world
        victim.post("http://portal.example.org/login", login_form("alice", PASS))
        (sniffed, *_rest) = capture.cleartext_http_requests()
        before = portal.active_credential_count()
        response = replay_http_request(
            strip_cookies(sniffed), attacker_transport(tb, portal)
        )
        # The attacker's replayed login minted a brand-new delegated proxy.
        assert response.status in (200, 303)
        assert portal.active_credential_count() == before + 1

    def test_extracted_passphrase_reusable_directly(self, world):
        tb, portal, victim, capture = world
        victim.post("http://portal.example.org/login", login_form("alice", PASS))
        (sniffed, *_rest) = capture.cleartext_http_requests()
        stolen = HttpRequest.parse(sniffed).form["passphrase"]
        assert stolen == PASS  # full credential-stealing capability


class TestOtpDefeatsReplay:
    @pytest.fixture()
    def otp_world(self, tb, key_pool, clock):
        user = tb.new_user("otto")
        gen = OTPGenerator("otp secret", "seed9", count=10)
        proxy = create_proxy(user.credential, lifetime=7 * 86400,
                             key_source=key_pool, clock=clock)
        tb.myproxy_client(user.credential).put(
            proxy, username="otto", auth_method=AuthMethod.OTP, otp=gen,
            lifetime=7 * 86400,
        )
        portal = tb.new_portal("otportal", https_only=False)
        capture = WireCapture("sniffer")
        victim = Browser(tap_web_connector(portal, capture, tb.validator))
        return tb, portal, victim, capture, gen

    def test_replayed_otp_login_fails(self, otp_world):
        """'Replay attacks ... could be prevented by replacing the current
        MyProxy pass phrase scheme with a one-time password system.'"""
        tb, portal, victim, capture, gen = otp_world
        word = gen.next_word()
        ok = victim.post(
            "http://otportal.example.org/login", login_form("otto", word, "otp")
        )
        assert "Dashboard" in ok.text  # the genuine login worked
        (sniffed, *_rest) = capture.cleartext_http_requests()
        before = portal.active_credential_count()
        response = replay_http_request(
            strip_cookies(sniffed), attacker_transport(tb, portal)
        )
        assert response.status == 401  # the word was already consumed
        assert portal.active_credential_count() == before

    def test_next_word_still_works_after_replay_attempt(self, otp_world):
        tb, portal, victim, capture, gen = otp_world
        victim.post("http://otportal.example.org/login",
                    login_form("otto", gen.next_word(), "otp"))
        (sniffed, *_rest) = capture.cleartext_http_requests()
        replay_http_request(strip_cookies(sniffed), attacker_transport(tb, portal))
        fresh = Browser(tap_web_connector(portal, WireCapture("x"), tb.validator))
        ok = fresh.post("https://otportal.example.org/login",
                        login_form("otto", gen.next_word(), "otp"))
        assert "Dashboard" in ok.text


class TestWireReplay:
    def test_captured_channel_bytes_do_not_replay(self, tb):
        """Cross-connection replay of encrypted frames dies in the
        handshake: fresh randoms mean fresh keys every connection."""
        from repro.attacks.eavesdrop import WireCapture, tap_link_target
        from repro.core.client import MyProxyClient, myproxy_init_from_longterm
        from repro.util.concurrency import wait_for
        from repro.util.errors import ReproError

        alice = tb.new_user("alice")
        capture = WireCapture("wire")
        target = tap_link_target(tb.myproxy.connect, capture)
        client = MyProxyClient(target, alice.credential, tb.validator,
                               clock=tb.clock, key_source=tb.key_source)
        myproxy_init_from_longterm(client, alice.credential, username="alice",
                                   passphrase=PASS, key_source=tb.key_source)
        assert capture.frames_to_server

        puts_before = tb.myproxy.stats.puts
        failures_before = tb.myproxy.stats.handshake_failures

        # Replay every captured client→server frame on a new connection.
        client_end = tb.myproxy.connect()
        try:
            for frame in capture.frames_to_server:
                client_end.send_frame(frame)
        except ReproError:
            pass  # server may already have torn the link down
        client_end.close()
        wait_for(lambda: tb.myproxy.stats.handshake_failures > failures_before,
                 timeout=10, message="the replayed handshake to be refused")
        # The server rejected the replayed handshake and stored nothing new.
        assert tb.myproxy.stats.handshake_failures == failures_before + 1
        assert tb.myproxy.stats.puts == puts_before
