#!/usr/bin/env python3
"""The §5 threat analysis as a live demonstration.

Five attackers, five outcomes:

  1. a wire sniffer on the MyProxy channel      -> sees only ciphertext
  2. a wire sniffer on a plain-HTTP portal      -> steals the pass phrase
  3. a replay of the stolen login               -> works with static pass
                                                   phrases, dies with OTP
  4. a fake repository                          -> rejected in the handshake
  5. an intruder on the repository host         -> encrypted keys only

Run:  python examples/security_demo.py
"""

from repro.attacks import (
    FakeRepository,
    WireCapture,
    loot_repository,
    replay_http_request,
    strip_cookies,
    tap_link_target,
    tap_web_connector,
)
from repro.core.client import MyProxyClient, myproxy_init_from_longterm
from repro.core.otp import OTPGenerator
from repro.core.protocol import AuthMethod
from repro.pki.proxy import create_proxy
from repro.testbed import GridTestbed
from repro.util.errors import HandshakeError
from repro.web.client import Browser
from repro.web.http11 import HttpRequest

PASS = "correct horse battery 42"
LOGIN = {
    "username": "alice",
    "passphrase": PASS,
    "repository": "repo-0",
    "lifetime_hours": "2",
    "auth_method": "passphrase",
}


def main() -> None:
    with GridTestbed() as tb:
        alice = tb.new_user("alice")

        # ---- 1. sniffing the MyProxy channel --------------------------------
        capture = WireCapture("gsi-sniffer")
        client = MyProxyClient(
            tap_link_target(tb.myproxy.connect, capture),
            alice.credential, tb.validator, key_source=tb.key_source,
        )
        myproxy_init_from_longterm(client, alice.credential, username="alice",
                                   passphrase=PASS, key_source=tb.key_source)
        print(f"1. GSI channel sniffer: {capture.byte_count()} bytes captured, "
              f"pass phrase visible: {capture.contains(PASS)}, "
              f"protocol text visible: {capture.contains('USERNAME')}")

        # ---- 2. sniffing a plain-HTTP portal login ----------------------------
        portal = tb.new_portal("portal", https_only=False)
        web_capture = WireCapture("web-sniffer")
        victim = Browser(tap_web_connector(portal, web_capture, tb.validator))
        victim.post("http://portal.example.org/login", LOGIN)
        sniffed = web_capture.cleartext_http_requests()[0]
        stolen = HttpRequest.parse(sniffed).form["passphrase"]
        print(f"2. plain-HTTP sniffer : stole the pass phrase: {stolen!r}")

        # ---- 3. replaying the stolen login ------------------------------------
        attacker_connector = tap_web_connector(
            portal, WireCapture("attacker"), tb.validator
        )
        response = replay_http_request(
            strip_cookies(sniffed),
            lambda: attacker_connector("https", "portal.example.org", 443),
        )
        print(f"3a. replay (static pass phrase): HTTP {response.status} — the "
              f"portal now holds {portal.active_credential_count()} proxies "
              "(the attack WORKED — §5.1's residual risk)")

        # The OTP fix: register bob with a one-time-password chain.
        bob = tb.new_user("bob")
        gen = OTPGenerator("bob otp secret", "seed", count=10)
        proxy = create_proxy(bob.credential, lifetime=7 * 86400,
                             key_source=tb.key_source)
        tb.myproxy_client(bob.credential).put(
            proxy, username="bob", auth_method=AuthMethod.OTP, otp=gen,
            lifetime=7 * 86400,
        )
        otp_capture = WireCapture("otp-sniffer")
        bob_browser = Browser(tap_web_connector(portal, otp_capture, tb.validator))
        bob_browser.post(
            "http://portal.example.org/login",
            {**LOGIN, "username": "bob", "passphrase": gen.next_word(),
             "auth_method": "otp"},
        )
        otp_sniffed = otp_capture.cleartext_http_requests()[0]
        replayed = replay_http_request(
            strip_cookies(otp_sniffed),
            lambda: attacker_connector("https", "portal.example.org", 443),
        )
        print(f"3b. replay (one-time password) : HTTP {replayed.status} — "
              "the captured word was already consumed (§5.1's fix)")

        # ---- 4. impersonating the repository ------------------------------------
        fake = FakeRepository(tb.ca.certificate)
        with fake.server:
            fake_client = MyProxyClient(fake.target(), alice.credential, tb.validator,
                                        key_source=tb.key_source)
            try:
                fake_client.get_delegation(username="alice", passphrase=PASS)
                outcome = "ACCEPTED (BAD!)"
            except HandshakeError as exc:
                outcome = f"rejected in the handshake ({exc})"
        print(f"4. fake repository    : {outcome}")
        print(f"   pass phrases harvested by the fake: {fake.server.stats.gets}")

        # ---- 5. raiding the repository spool --------------------------------------
        loot = loot_repository(
            tb.myproxy.repository,
            dictionary=["password", "grid", "letmein", "dragon", "123456"],
        )
        print(f"5. repository intruder: {loot.entries_seen} entries read, "
              f"{loot.certificates_read} certificates (public), "
              f"{loot.private_keys_recovered} private keys recovered, "
              f"{loot.server_sealed_entries} server-sealed (OTP) entries")


if __name__ == "__main__":
    main()
