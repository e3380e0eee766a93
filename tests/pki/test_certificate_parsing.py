"""Parsing parity: ``from_pem``/``list_from_pem`` keep their contract.

The parsed-certificate table may hand back objects it parsed before; what
callers see must not change: the first certificate of a bundle, the same
``ValidationError`` for empty, garbage and truncated input, and a list the
caller owns.
"""

import pytest

from repro.pki.certs import Certificate
from repro.util.errors import ValidationError


@pytest.fixture()
def bundle(alice, ca):
    return alice.certificate.to_pem() + ca.certificate.to_pem()


def _bad_inputs(pem: bytes) -> dict[str, bytes]:
    return {
        "empty": b"",
        "garbage": b"not a certificate at all\n",
        "truncated": pem[: len(pem) // 2],
        "bad_base64": pem.replace(b"\n", b"\n!", 3),
        "end_marker_only": b"-----END CERTIFICATE-----\n",
    }


BAD_CASES = sorted(_bad_inputs(b""))


class TestFirstCertificate:
    def test_from_pem_on_a_bundle_returns_the_first(self, bundle, alice):
        assert Certificate.from_pem(bundle) == alice.certificate

    def test_list_from_pem_returns_all_in_order(self, bundle, alice, ca):
        assert Certificate.list_from_pem(bundle) == [alice.certificate, ca.certificate]

    def test_non_certificate_blocks_are_skipped(self, alice):
        pem = alice.export_pem()  # cert, key, no chain
        assert Certificate.list_from_pem(pem) == [alice.certificate]
        assert Certificate.from_pem(pem) == alice.certificate


class TestMalformedInput:
    @pytest.mark.parametrize("case", BAD_CASES)
    def test_from_pem_refuses(self, alice, case):
        data = _bad_inputs(alice.certificate.to_pem())[case]
        with pytest.raises(ValidationError, match="^malformed certificate PEM$"):
            Certificate.from_pem(data)

    @pytest.mark.parametrize("case", BAD_CASES)
    def test_list_from_pem_refuses(self, alice, case):
        pem = alice.certificate.to_pem()
        Certificate.list_from_pem(pem)  # the good bytes were parsed before
        with pytest.raises(ValidationError, match="^malformed certificate bundle$"):
            Certificate.list_from_pem(_bad_inputs(pem)[case])

    def test_a_trailing_partial_block_is_ignored(self, alice):
        """The underlying PEM reader skips an unterminated last block."""
        pem = alice.certificate.to_pem()
        assert Certificate.list_from_pem(pem + pem[: len(pem) // 2]) == [
            alice.certificate
        ]

    def test_a_refusal_does_not_poison_the_good_bytes(self, alice):
        pem = alice.certificate.to_pem()
        with pytest.raises(ValidationError):
            Certificate.list_from_pem(pem[:-40])
        assert Certificate.list_from_pem(pem) == [alice.certificate]


class TestCallerOwnsTheList:
    def test_mutating_a_returned_list_does_not_leak(self, bundle, alice, ca):
        first = Certificate.list_from_pem(bundle)
        first.append(first[0])
        first.reverse()
        assert Certificate.list_from_pem(bundle) == [alice.certificate, ca.certificate]

    def test_each_call_returns_a_new_list(self, bundle):
        assert Certificate.list_from_pem(bundle) is not Certificate.list_from_pem(bundle)


class TestRepeatParse:
    def test_two_parses_are_equal(self, bundle):
        assert Certificate.list_from_pem(bundle) == Certificate.list_from_pem(bundle)
        assert Certificate.from_pem(bundle) == Certificate.from_pem(bundle)
        assert hash(Certificate.from_pem(bundle)) == hash(Certificate.from_pem(bundle))

    def test_two_parses_are_the_same_object(self, bundle):
        a = Certificate.list_from_pem(bundle)
        b = Certificate.list_from_pem(bundle)
        assert all(x is y for x, y in zip(a, b))
        assert Certificate.from_pem(bundle) is a[0]

    def test_other_line_endings_parse_to_the_same_certificates(self, bundle, alice, ca):
        crlf = bundle.replace(b"\n", b"\r\n")
        assert Certificate.list_from_pem(crlf) == [alice.certificate, ca.certificate]
        assert Certificate.from_pem(crlf) == alice.certificate
