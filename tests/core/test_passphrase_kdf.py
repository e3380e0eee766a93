"""The pass-phrase KDF: one PBKDF2-HMAC-SHA256 helper for every verifier.

``pbkdf2_sha256`` runs on the OpenSSL that ``cryptography`` bundles.  It
must give the bytes ``hashlib.pbkdf2_hmac`` gives, so verifiers stored
before the swap keep checking; nothing in the server may still reach for
``hashlib``; and a malformed stored verifier is a wrong pass phrase, not
an exception that drops the link.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import AuthMethod
from repro.core.repository import check_passphrase, make_passphrase_verifier, pbkdf2_sha256
from repro.core.siteauth import SiteAuthority
from repro.pki.proxy import create_proxy
from repro.util.errors import AuthenticationError

PASS = "correct horse 42"
DENIAL = "remote authorization/authentication failed"

#: Written by ``make_passphrase_verifier`` when it still derived through
#: ``hashlib.pbkdf2_hmac``: a stored verifier from before the swap.
LEGACY_PHRASE = "correct horse battery 42 — ünïcødé"
LEGACY_VERIFIER = {
    "method": "passphrase",
    "salt": "2371369d0090235c9d380bd29dae86ef",
    "hash": "6cf931bb35fdf387634bec3686fd83b60eca0283ed96abe12fc24e27ff5d863d",
    "iterations": 20000,
}


class TestSameBytes:
    @settings(max_examples=60, deadline=None)
    @given(
        secret=st.text(max_size=40),
        salt=st.binary(max_size=64),
        iterations=st.integers(min_value=1, max_value=2000),
    )
    def test_helper_equals_hashlib(self, secret, salt, iterations):
        expected = hashlib.pbkdf2_hmac("sha256", secret.encode("utf-8"), salt, iterations)
        assert pbkdf2_sha256(secret, salt, iterations) == expected

    def test_a_verifier_stored_before_the_swap_still_checks(self):
        assert check_passphrase(LEGACY_VERIFIER, LEGACY_PHRASE)
        assert not check_passphrase(LEGACY_VERIFIER, LEGACY_PHRASE + " ")
        assert not check_passphrase(LEGACY_VERIFIER, "")

    def test_new_verifier_keeps_its_json_shape(self):
        verifier = make_passphrase_verifier(PASS, 1000)
        assert sorted(verifier) == ["hash", "iterations", "method", "salt"]
        assert verifier["iterations"] == 1000
        assert len(bytes.fromhex(verifier["salt"])) == 16
        assert len(bytes.fromhex(verifier["hash"])) == 32
        assert check_passphrase(verifier, PASS)


@pytest.fixture()
def no_hashlib_kdf(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hashlib.pbkdf2_hmac called")

    monkeypatch.setattr(hashlib, "pbkdf2_hmac", refuse)


class TestNoHashlibKdf:
    def test_put_get_and_change_passphrase(self, tb, no_hashlib_kdf):
        alice, portal = tb.new_user("alice"), tb.new_user("portal")
        tb.myproxy_init(alice, passphrase=PASS)
        got = tb.myproxy_get(username="alice", passphrase=PASS, requester=portal.credential)
        assert got.identity == alice.dn
        tb.myproxy_client(alice.credential).change_passphrase(
            username="alice", old_passphrase=PASS, new_passphrase="rotated 88"
        )
        got = tb.myproxy_get(
            username="alice", passphrase="rotated 88", requester=portal.credential
        )
        assert got.identity == alice.dn

    def test_site_realm_login(self, tb, key_pool, clock, no_hashlib_kdf):
        site = SiteAuthority("EXAMPLE.ORG", clock=clock)
        site.register_user("carol", "site pass 9")
        with pytest.raises(AuthenticationError):
            site.login("carol", "site pass 8")
        tb.myproxy.site_secrets["EXAMPLE.ORG"] = site.shared_secret
        carol = tb.new_user("carol")
        proxy = create_proxy(carol.credential, lifetime=7 * 86400,
                             key_source=key_pool, clock=clock)
        tb.myproxy_client(carol.credential).put(
            proxy, username="carol", auth_method=AuthMethod.SITE,
            site_realm="EXAMPLE.ORG", lifetime=7 * 86400,
        )
        got = tb.myproxy_client(carol.credential).get_delegation(
            username="carol", passphrase=site.login("carol", "site pass 9"),
            auth_method=AuthMethod.SITE,
        )
        assert got.identity == carol.dn


class TestMalformedVerifier:
    @pytest.mark.parametrize(
        "iterations, derived_with",
        # A count that coerces to an int is refused even when the hash
        # was derived with what it coerces to.
        [(0, 1000), (-1, 1000), ("x", 1000), (None, 1000),
         (2**64, 1000), (True, 1), (2.5, 2), ("1000", 1000)],
    )
    def test_bad_round_count_checks_false(self, iterations, derived_with):
        verifier = {**make_passphrase_verifier(PASS, derived_with), "iterations": iterations}
        assert check_passphrase(verifier, PASS) is False

    @pytest.mark.parametrize("iterations", [0, -1, True, "x", 2.5])
    def test_gsi_get_gets_the_uniform_denial(self, tb, iterations):
        alice, portal = tb.new_user("alice"), tb.new_user("portal")
        tb.myproxy_init(alice, passphrase=PASS)
        repo = tb.myproxy.repository
        entry = repo.get("alice", "default")
        repo.put(entry.with_verifier({**entry.verifier, "iterations": iterations}))
        denials = tb.myproxy.stats.snapshot()["denials"]
        with pytest.raises(AuthenticationError, match=DENIAL):
            tb.myproxy_get(username="alice", passphrase=PASS, requester=portal.credential)
        last = tb.myproxy.audit_log()[-1]
        assert (last.command, last.ok) == ("GET", False)
        assert tb.myproxy.stats.snapshot()["denials"] == denials + 1
        assert len(tb.myproxy._failed_auths[("alice", "default")]) == 1
