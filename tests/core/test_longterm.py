"""X1: managed long-term credentials (§6.1 STORE/RETRIEVE)."""

import pytest

from repro.util.errors import AuthenticationError

PASS = "correct horse 42"


@pytest.fixture()
def stored(tb):
    alice = tb.new_user("alice")
    client = tb.myproxy_client(alice.credential)
    client.store_longterm(alice.credential, username="alice", passphrase=PASS,
                          cred_name="longterm")
    return tb, alice, client


class TestStore:
    def test_entry_marked_long_term(self, stored):
        tb, _, _ = stored
        entry = tb.myproxy.repository.get("alice", "longterm")
        assert entry.long_term

    def test_server_never_holds_plaintext_key(self, stored):
        """§6.1 + §5.1: the key stays pass-phrase-encrypted at rest."""
        tb, alice, _ = stored
        entry = tb.myproxy.repository.get("alice", "longterm")
        assert b"ENCRYPTED PRIVATE KEY" in entry.key_pem
        # And without the pass phrase it does not load:
        from repro.pki.credentials import Credential
        from repro.util.errors import CredentialError

        with pytest.raises(CredentialError):
            Credential.import_pem(entry.key_pem)

    def test_store_someone_elses_credential_refused(self, tb):
        alice = tb.new_user("alice")
        mallory = tb.new_user("mallory")
        client = tb.myproxy_client(mallory.credential)
        with pytest.raises(AuthenticationError, match="refused"):
            client.store_longterm(alice.credential, username="alice", passphrase=PASS)

    @pytest.mark.parametrize("asked", [None, 0.0, -5.0])
    def test_store_without_a_positive_cap_takes_the_servers(self, tb, asked):
        """STORE reads ``MAX_GET_LIFETIME`` as PUT does: absent or ≤ 0 is
        the server's maximum, so the INFO row is one every client reads."""
        alice = tb.new_user("alice")
        with tb.myproxy_client(alice.credential) as client:
            client.store_longterm(alice.credential, username="alice", passphrase=PASS,
                                  max_get_lifetime=asked)
            (row,) = client.info(username="alice")
        assert row.max_get_lifetime == tb.myproxy.policy.max_delegation_lifetime

    def test_store_requires_strong_passphrase(self, tb):
        alice = tb.new_user("alice")
        client = tb.myproxy_client(alice.credential)
        with pytest.raises(AuthenticationError):
            client.store_longterm(alice.credential, username="alice", passphrase="abc")


class TestServerSideMinting:
    def test_get_mints_proxy_from_stored_eec(self, stored, clock):
        """The §6.1 goal: the repository delegates from the long-term
        credential, so the user never needs local key files again."""
        tb, alice, _ = stored
        requester = tb.new_user("portal")
        proxy = tb.myproxy_client(requester.credential).get_delegation(
            username="alice", passphrase=PASS, cred_name="longterm", lifetime=3600
        )
        assert proxy.identity == alice.dn
        assert proxy.proxy_depth == 1  # minted directly off the EEC
        assert tb.validator.validate(proxy.full_chain())

    def test_minting_survives_months(self, stored, clock):
        """Unlike a stored proxy (1 week), a long-term entry keeps working."""
        tb, alice, _ = stored
        clock.advance(60 * 86400)  # two months
        requester = tb.new_user("portal2")
        proxy = tb.myproxy_client(requester.credential).get_delegation(
            username="alice", passphrase=PASS, cred_name="longterm"
        )
        assert proxy.identity == alice.dn


class TestRetrieve:
    def test_retrieve_returns_full_credential(self, stored):
        tb, alice, client = stored
        back = client.retrieve_longterm(username="alice", passphrase=PASS,
                                        cred_name="longterm")
        assert back.identity == alice.dn
        assert back.has_key

    def test_retrieve_wire_blob_is_encrypted(self, stored):
        """Even on RETRIEVE the key travels pass-phrase-encrypted."""
        tb, _, client = stored
        entry = tb.myproxy.repository.get("alice", "longterm")
        assert b"BEGIN ENCRYPTED PRIVATE KEY" in entry.key_pem

    def test_retrieve_wrong_passphrase_refused(self, stored):
        _, _, client = stored
        with pytest.raises(AuthenticationError):
            client.retrieve_longterm(username="alice", passphrase="wrong!",
                                     cred_name="longterm")

    def test_retrieve_refused_for_proxy_entries(self, tb):
        """RETRIEVE must not leak ordinary delegated proxies."""
        user = tb.new_user("norm")
        tb.myproxy_init(user, passphrase=PASS)
        with pytest.raises(AuthenticationError):
            tb.myproxy_client(user.credential).retrieve_longterm(
                username="norm", passphrase=PASS
            )


class TestIngestValidates:
    def test_store_refuses_inconsistent_key(self, tb, corrupt_crt):
        """STORE is the ingest check that lets GET skip it: an RSA key that
        fails OpenSSL's consistency check is refused and nothing is kept."""
        from dataclasses import replace

        from repro.util.errors import NotFoundError

        alice = tb.new_user("alice")
        bad = replace(alice.credential, key=corrupt_crt(alice.credential.key))
        client = tb.myproxy_client(alice.credential)
        with pytest.raises(AuthenticationError):
            client.store_longterm(bad, username="alice", passphrase=PASS,
                                  cred_name="longterm")
        with pytest.raises(NotFoundError):
            tb.myproxy.repository.get("alice", "longterm")
        assert "could not load private key" in tb.myproxy.audit_log()[-1].detail


class TestChangePassphrase:
    NEW = "rotated pass 88"

    def test_change_keeps_the_full_credential(self, stored):
        """Regression: CHANGE_PASSPHRASE used to replace the STORE blob
        (certificates + key) with a bare key, breaking GET and RETRIEVE."""
        tb, alice, client = stored
        client.change_passphrase(username="alice", old_passphrase=PASS,
                                 new_passphrase=self.NEW, cred_name="longterm")
        getter = tb.myproxy_client(tb.new_user("portal").credential)
        proxy = getter.get_delegation(username="alice", passphrase=self.NEW,
                                      cred_name="longterm")
        assert proxy.identity == alice.dn
        with pytest.raises(AuthenticationError):
            getter.get_delegation(username="alice", passphrase=PASS,
                                  cred_name="longterm")
        back = client.retrieve_longterm(username="alice", passphrase=self.NEW,
                                        cred_name="longterm")
        assert back.identity == alice.dn
        assert back.key.public == alice.credential.key.public
        assert back.chain == alice.credential.chain
        entry = tb.myproxy.repository.get("alice", "longterm")
        assert b"BEGIN ENCRYPTED PRIVATE KEY" in entry.key_pem
