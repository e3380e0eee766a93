"""S4 (§5.1/§5.2): passive eavesdropping.

"Since sensitive information is transferred between the MyProxy client
programs and the server, all data passing to and from the server is
encrypted" — and, for portals, "transmitting the name and pass phrase over
unencrypted HTTP would allow any intruder to snoop the pass phrase."
"""

import pytest

from repro.attacks.eavesdrop import WireCapture, tap_link_target, tap_web_connector
from repro.core.client import MyProxyClient, myproxy_init_from_longterm
from repro.web.client import Browser

PASS = "hunter7 grid pass"
LOGIN = {
    "username": "alice",
    "passphrase": PASS,
    "repository": "repo-0",
    "lifetime_hours": "2",
    "auth_method": "passphrase",
}


class TestMyProxyChannel:
    @pytest.fixture()
    def tapped(self, tb):
        alice = tb.new_user("alice")
        capture = WireCapture("myproxy-tap")
        target = tap_link_target(tb.myproxy.connect, capture)
        client = MyProxyClient(
            target, alice.credential, tb.validator,
            clock=tb.clock, key_source=tb.key_source,
        )
        return tb, alice, client, capture

    def test_passphrase_never_in_cleartext(self, tapped):
        tb, alice, client, capture = tapped
        myproxy_init_from_longterm(
            client, alice.credential, username="alice", passphrase=PASS,
            key_source=tb.key_source,
        )
        client.get_delegation(username="alice", passphrase=PASS)
        assert capture.frame_count() > 0
        assert not capture.contains(PASS)
        assert not capture.contains("PASSPHRASE")

    def test_no_protocol_structure_visible(self, tapped):
        tb, alice, client, capture = tapped
        myproxy_init_from_longterm(
            client, alice.credential, username="alice", passphrase=PASS,
            key_source=tb.key_source,
        )
        for marker in ("VERSION", "COMMAND", "USERNAME", "MYPROXY"):
            assert not capture.contains(marker)

    def test_no_private_key_material_on_wire(self, tapped):
        tb, alice, client, capture = tapped
        myproxy_init_from_longterm(
            client, alice.credential, username="alice", passphrase=PASS,
            key_source=tb.key_source,
        )
        proxy = client.get_delegation(username="alice", passphrase=PASS)
        assert not capture.contains(b"PRIVATE KEY")
        key_body = proxy.key.to_pem().splitlines()[2]
        assert not capture.contains(key_body)

    def test_certificates_do_cross_the_handshake(self, tapped):
        """Calibration: the tap works — certs ARE visible in the hello
        messages (they are public), so an empty capture isn't the reason
        the secrets were missing."""
        tb, alice, client, capture = tapped
        myproxy_init_from_longterm(
            client, alice.credential, username="alice", passphrase=PASS,
            key_source=tb.key_source,
        )
        assert capture.contains(b"BEGIN CERTIFICATE")


class TestWebTraffic:
    @pytest.fixture()
    def world(self, tb):
        alice = tb.new_user("alice")
        tb.myproxy_init(alice, passphrase=PASS)
        portal = tb.new_portal("portal", https_only=False)  # allow both paths
        capture = WireCapture("web-tap")
        browser = Browser(tap_web_connector(portal, capture, tb.validator))
        return tb, portal, browser, capture

    def test_plain_http_login_leaks_the_passphrase(self, world):
        """The §5.2 disaster, demonstrated: the sniffer parses the POST
        body (url-encoded) and recovers the exact pass phrase."""
        from repro.web.http11 import HttpRequest

        _, _, browser, capture = world
        browser.post("http://portal.example.org/login", LOGIN)
        requests = capture.cleartext_http_requests()
        assert requests
        recovered = HttpRequest.parse(requests[0]).form
        assert recovered["passphrase"] == PASS
        assert recovered["username"] == "alice"

    def test_https_login_leaks_nothing(self, world):
        _, portal, browser, capture = world
        response = browser.post("https://portal.example.org/login", LOGIN)
        assert "Dashboard" in response.text
        assert not capture.contains(PASS)
        assert capture.cleartext_http_requests() == []

    def test_https_hides_session_cookie_too(self, world):
        _, portal, browser, capture = world
        browser.post("https://portal.example.org/login", LOGIN)
        cookie = browser.cookies["portal.example.org"].get("REPROSESSID")
        assert cookie is not None
        assert not capture.contains(cookie)
