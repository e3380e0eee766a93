"""Key pairs: signing, key transport, encrypted storage."""

import pytest

from repro.pki.keys import FreshKeySource, KeyPair, PooledKeySource, PublicKey
from repro.util.errors import CredentialError


@pytest.fixture(scope="module")
def key():
    return KeyPair.generate(1024)


@pytest.fixture(scope="module")
def other_key():
    return KeyPair.generate(1024)


class TestSignVerify:
    def test_signature_verifies(self, key):
        sig = key.sign(b"message")
        assert key.public.verify(sig, b"message")

    def test_signature_bound_to_message(self, key):
        sig = key.sign(b"message")
        assert not key.public.verify(sig, b"other message")

    def test_signature_bound_to_key(self, key, other_key):
        sig = key.sign(b"message")
        assert not other_key.public.verify(sig, b"message")

    def test_garbage_signature_rejected_not_raised(self, key):
        assert key.public.verify(b"not a signature", b"message") is False


class TestKeyTransport:
    def test_roundtrip(self, key):
        secret = b"s" * 48
        assert key.decrypt(key.public.encrypt(secret)) == secret

    def test_wrong_key_fails(self, key, other_key):
        blob = key.public.encrypt(b"x" * 48)
        with pytest.raises(CredentialError):
            other_key.decrypt(blob)

    def test_tampered_ciphertext_fails(self, key):
        blob = bytearray(key.public.encrypt(b"x" * 48))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(CredentialError):
            key.decrypt(bytes(blob))


class TestStorage:
    def test_plaintext_roundtrip(self, key):
        pem = key.to_pem()
        assert KeyPair.from_pem(pem).public == key.public

    def test_encrypted_roundtrip(self, key):
        pem = key.to_pem("open sesame")
        assert KeyPair.from_pem(pem, "open sesame").public == key.public

    def test_wrong_passphrase_rejected(self, key):
        pem = key.to_pem("open sesame")
        with pytest.raises(CredentialError):
            KeyPair.from_pem(pem, "wrong")

    def test_missing_passphrase_rejected(self, key):
        pem = key.to_pem("open sesame")
        with pytest.raises(CredentialError):
            KeyPair.from_pem(pem)

    def test_encrypted_pem_hides_key_material(self, key):
        plain = key.to_pem()
        encrypted = key.to_pem("open sesame")
        # The plaintext DER body must not appear inside the encrypted PEM.
        import base64

        der = base64.b64decode(
            b"".join(plain.splitlines()[1:-1])
        )
        assert der[:64] not in encrypted

    def test_empty_passphrase_refused(self, key):
        with pytest.raises(CredentialError):
            key.to_pem("")

    def test_public_pem_roundtrip(self, key):
        assert PublicKey.from_pem(key.public.to_pem()) == key.public

    def test_public_from_garbage_rejected(self):
        with pytest.raises(CredentialError):
            PublicKey.from_pem(b"junk")


class TestTrustedLoad:
    """``trusted=True`` skips only OpenSSL's RSA consistency re-check.

    The contract the repository's entry-key loader relies on: ingest (the
    default) refuses an inconsistent key; a trusted load of the same bytes
    does not look, so it must only ever see keys validated at ingest.
    """

    @pytest.mark.parametrize("passphrase", [None, "open sesame"])
    def test_default_load_refuses_corrupt_crt(self, key, corrupt_crt, passphrase):
        pem = corrupt_crt(key).to_pem(passphrase)
        with pytest.raises(CredentialError):
            KeyPair.from_pem(pem, passphrase)

    @pytest.mark.parametrize("passphrase", [None, "open sesame"])
    def test_trusted_load_skips_the_check(self, key, corrupt_crt, passphrase):
        pem = corrupt_crt(key).to_pem(passphrase)
        assert KeyPair.from_pem(pem, passphrase, trusted=True).public == key.public

    def test_corrupt_crt_key_never_emits_a_faulty_signature(self, key, corrupt_crt):
        """OpenSSL checks each CRT result and recomputes on mismatch, so
        even a key that slipped past ingest cannot leak p via a faulty
        signature (the Bellcore attack)."""
        loaded = KeyPair.from_pem(corrupt_crt(key).to_pem(), trusted=True)
        assert loaded.sign(b"message") == key.sign(b"message")

    def test_trusted_load_still_needs_the_passphrase(self, key):
        pem = key.to_pem("open sesame")
        with pytest.raises(CredentialError):
            KeyPair.from_pem(pem, "wrong", trusted=True)

    def test_credential_import_validates_by_default(self, ca, key, corrupt_crt):
        from repro.pki.credentials import Credential
        from repro.pki.names import DistinguishedName

        bad = ca.issue_credential(
            DistinguishedName.grid_user("Grid", "T", "Eve"), key=corrupt_crt(key)
        ).export_pem("open sesame")
        with pytest.raises(CredentialError):
            Credential.import_pem(bad, "open sesame")
        assert Credential.import_pem(bad, "open sesame", trusted=True).has_key


class TestKeySources:
    def test_generate_rejects_weak_sizes(self):
        with pytest.raises(CredentialError):
            KeyPair.generate(512)

    def test_fresh_source_produces_distinct_keys(self):
        source = FreshKeySource(bits=1024)
        assert source.new_key().public != source.new_key().public

    def test_pooled_source_recycles(self):
        source = PooledKeySource(1024, size=2)
        keys = [source.new_key().public for _ in range(4)]
        assert keys[0] == keys[2] and keys[1] == keys[3]
        assert keys[0] != keys[1]

    def test_pool_requires_positive_size(self):
        with pytest.raises(ValueError):
            PooledKeySource(1024, size=0)

    def test_fingerprint_stable_and_distinct(self, key, other_key):
        assert key.public.fingerprint() == key.public.fingerprint()
        assert key.public.fingerprint() != other_key.public.fingerprint()
