"""The parsed-certificate table and signature memo never stand in for a
trust decision.

``Certificate.from_pem``/``list_from_pem`` hand back the objects they parsed
before, and ``signed_by`` remembers a success per issuer key object.  Both
are pure functions of public bytes, so revocation, anchor changes and
forged signatures must be refused exactly as on first sight; the table is
bounded and reaches no private key; and concurrent validation agrees.
"""

import gc
import random
import sys
import threading
import types

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import serialization

from repro.pki import certs
from repro.pki.ca import CertificateAuthority
from repro.pki.certs import TABLE_SIZE, Certificate
from repro.pki.credentials import Credential
from repro.pki.keys import KeyPair
from repro.pki.proxy import create_proxy, sign_proxy_request
from repro.pki.validation import ChainValidator
from repro.transport.channel import accept_secure, connect_secure
from repro.transport.links import pipe_pair
from repro.util.errors import RevokedError, ValidationError


def chain_pem(credential: Credential) -> bytes:
    return b"".join(c.to_pem() for c in credential.full_chain())


def warm(validator: ChainValidator, pem: bytes) -> list[Certificate]:
    """Parse and validate ``pem`` so its certificates are interned and memoised."""
    chain = Certificate.list_from_pem(pem)
    validator.validate(chain)
    assert all(c.__dict__.get("_verified_by") for c in chain)
    assert all(a is b for a, b in zip(chain, Certificate.list_from_pem(pem)))
    return chain


def kept_channel(validator, server_credential, client_credential):
    """The server side of an authenticated channel, as a kept channel has it."""
    client_end, server_end = pipe_pair("table")
    accepted = {}
    thread = threading.Thread(
        target=lambda: accepted.setdefault(
            "channel", accept_secure(server_end, server_credential, validator)
        ),
        daemon=True,
    )
    thread.start()
    client = connect_secure(client_end, client_credential, validator)
    thread.join(10.0)
    assert not thread.is_alive()
    return accepted["channel"], client


@pytest.fixture()
def proxy(alice, key_pool, clock):
    return create_proxy(alice, key_source=key_pool, clock=clock)


class TestRevocationBeatsTheTable:
    def test_validate_refuses_a_warm_chain_after_a_crl_update(
        self, ca, validator, proxy, alice
    ):
        pem = chain_pem(proxy)
        warm(validator, pem)
        ca.revoke(alice.certificate)
        validator.update_crl(ca.crl())
        with pytest.raises(RevokedError):
            validator.validate(Certificate.list_from_pem(pem))

    def test_kept_channel_refuses_a_warm_chain_after_a_crl_update(
        self, ca, validator, proxy, alice, host_cred
    ):
        channel, client = kept_channel(validator, host_cred, proxy)
        try:
            warm(validator, chain_pem(proxy))
            assert channel.still_trusted(validator)
            ca.revoke(alice.certificate)
            validator.update_crl(ca.crl())
            assert not channel.still_trusted(validator)
            # Past the generation check too: the chain itself, interned
            # and memoised, is walked again and refused.
            channel.trust_generation = validator.generation
            assert not channel.still_trusted(validator)
        finally:
            client.close()
            channel.close()


class TestAnchorReplacement:
    def test_same_dn_new_key_refuses_the_old_chains(self, ca, validator, proxy, clock):
        pem = chain_pem(proxy)
        warm(validator, pem)
        impostor = CertificateAuthority(ca.name, clock=clock, key=KeyPair.generate(1024))
        assert impostor.certificate.subject == ca.certificate.subject
        assert impostor.certificate.public_key != ca.certificate.public_key
        validator.add_anchor(impostor.certificate)
        with pytest.raises(ValidationError, match="bad signature"):
            validator.validate(Certificate.list_from_pem(pem))
        fresh = ChainValidator([impostor.certificate], clock=clock)
        with pytest.raises(ValidationError, match="bad signature"):
            fresh.validate(Certificate.list_from_pem(pem))


class TestForgedSignature:
    def test_flipped_signature_byte_is_its_own_object_and_leaves_no_memo(
        self, ca, validator, alice
    ):
        good = warm(validator, alice.certificate.to_pem())[0]
        der = alice.certificate.raw.public_bytes(serialization.Encoding.DER)
        forged_der = der[:-1] + bytes([der[-1] ^ 0x01])
        forged_pem = x509.load_der_x509_certificate(forged_der).public_bytes(
            serialization.Encoding.PEM
        )
        forged = Certificate.from_pem(forged_pem)
        assert forged is not good
        assert forged != good
        assert forged.subject == good.subject
        for _ in range(2):
            assert not forged.signed_by(ca.certificate.public_key)
            with pytest.raises(ValidationError, match="bad signature"):
                validator.validate([forged])
        assert "_verified_by" not in forged.__dict__
        assert Certificate.from_pem(forged_pem) is forged
        assert Certificate.from_pem(alice.certificate.to_pem()) is good
        validator.validate([good])


class TestBound:
    def test_table_stays_within_its_bound(self, alice, key_pool, clock):
        public = key_pool.new_key().public
        for _ in range(TABLE_SIZE + 100):
            issued = sign_proxy_request(alice, public, clock=clock)
            Certificate.from_pem(issued.to_pem())
            assert len(certs._table) <= TABLE_SIZE
        assert len(certs._table) == TABLE_SIZE


class TestNoSecretReachable:
    def test_no_key_pair_or_credential_is_reachable_from_the_table(
        self, validator, alice, proxy
    ):
        # Put private-key-bearing bundles through every parse path first.
        Credential.import_pem(proxy.export_pem())
        Credential.import_pem(alice.export_pem("a pass phrase 42"), "a pass phrase 42")
        warm(validator, chain_pem(proxy))
        skipped = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
                   types.MethodType, types.CodeType)
        seen: set[int] = set()
        stack: list[object] = [certs._table]
        reached_certs = 0
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, skipped):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (KeyPair, Credential)), obj
            assert not hasattr(obj, "private_bytes"), type(obj)
            reached_certs += isinstance(obj, Certificate)
            stack.extend(gc.get_referents(obj))
        assert reached_certs >= 2


class TestConcurrentValidation:
    def test_eight_threads_agree_with_an_unmemoised_walk(
        self, ca, validator, alice, bob, key_pool, clock
    ):
        alice_proxy = create_proxy(alice, key_source=key_pool, clock=clock)
        limited = create_proxy(alice_proxy, limited=True, key_source=key_pool, clock=clock)
        bob_proxy = create_proxy(bob, key_source=key_pool, clock=clock)
        der = alice_proxy.certificate.raw.public_bytes(serialization.Encoding.DER)
        forged = x509.load_der_x509_certificate(
            der[:-1] + bytes([der[-1] ^ 0x01])
        ).public_bytes(serialization.Encoding.PEM)
        pems = [
            chain_pem(alice_proxy),
            chain_pem(limited),
            chain_pem(bob_proxy),
            forged + b"".join(c.to_pem() for c in alice_proxy.chain),
        ]
        ca.revoke(bob.certificate)
        validator.update_crl(ca.crl())

        def outcome(check: ChainValidator, chain) -> tuple:
            try:
                ident = check.validate(chain)
            except ValidationError as exc:
                return ("refused", type(exc).__name__, str(exc))
            return ("ok", str(ident.identity), ident.proxy_type.value, ident.proxy_depth)

        # The truth: objects built outside the table, so nothing is memoised.
        reference = ChainValidator([ca.certificate], clock=clock, cache_size=0)
        reference.update_crl(ca.crl())
        expected = [
            outcome(reference, [Certificate(c) for c in x509.load_pem_x509_certificates(p)])
            for p in pems
        ]
        assert [e[0] for e in expected] == ["ok", "ok", "refused", "refused"]

        results: dict[int, list[tuple]] = {}
        start = threading.Barrier(8)

        def run(worker: int) -> None:
            rng = random.Random(worker)
            order = [i for i in range(len(pems)) for _ in range(15)]
            rng.shuffle(order)
            start.wait()
            seen = [None] * len(pems)
            for i in order:
                got = outcome(validator, Certificate.list_from_pem(pems[i]))
                assert seen[i] in (None, got)
                seen[i] = got
            results[worker] = seen

        threads = [threading.Thread(target=run, args=(w,), daemon=True) for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside table and memo updates
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(8))
        assert all(results[w] == expected for w in range(8))
