"""X.509 certificate wrapper and issuance helper (§2.1).

:class:`Certificate` is an immutable view over a ``cryptography``
:class:`~cryptography.x509.Certificate` exposing exactly what the Grid
layers need: the subject/issuer as :class:`~repro.pki.names.DistinguishedName`,
epoch-seconds validity, the CA flag, the proxy-restriction payload (§6.5) and
signature verification against an issuer's public key.

:func:`build_certificate` is the single place certificates are minted — the
CA (:mod:`repro.pki.ca`) and proxy signing (:mod:`repro.pki.proxy`) both call
it, so extension handling stays consistent.

Parsing goes through one bounded per-process table keyed by each
certificate's canonical PEM encoding, so bytes parsed before come back as
the same :class:`Certificate` objects, with their names, fingerprint, PEM
and successful signature checks already worked out.  Everything the table
holds is a pure function of public bytes; no trust decision (time, CRL,
anchors, trust generation) is ever stored in it.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding

from repro.pki.keys import KeyPair, PublicKey
from repro.pki.names import DistinguishedName
from repro.util.clock import Clock
from repro.util.errors import ValidationError

#: Private-arc OID carrying the JSON-encoded proxy restrictions of §6.5
#: (standing in for the GGF/IETF restricted-delegation profile the paper
#: cites as in-progress work [15, 16]).
RESTRICTIONS_OID = x509.ObjectIdentifier("1.3.6.1.4.1.57264.99.1")

#: Default tolerated clock skew between Grid hosts, seconds.
CLOCK_SKEW = 300.0

#: How many parsed certificates one process keeps (least recently used
#: go first).  The table pays only while the same chains come back within
#: this many newly parsed certificates; past that, a certificate is parsed
#: and verified again, as if there were no table.
TABLE_SIZE = 256

_PEM_END = b"-----END CERTIFICATE-----\n"


@dataclass(frozen=True)
class Certificate:
    """Immutable wrapper over an X.509 certificate."""

    raw: x509.Certificate

    # -- identity -----------------------------------------------------------

    @cached_property
    def subject(self) -> DistinguishedName:
        return DistinguishedName.from_x509(self.raw.subject)

    @cached_property
    def issuer(self) -> DistinguishedName:
        return DistinguishedName.from_x509(self.raw.issuer)

    @property
    def serial(self) -> int:
        return self.raw.serial_number

    @cached_property
    def public_key(self) -> PublicKey:
        return PublicKey(self.raw.public_key())  # type: ignore[arg-type]

    @cached_property
    def _fingerprint(self) -> str:
        return self.raw.fingerprint(hashes.SHA256()).hex()[:32]

    def fingerprint(self) -> str:
        return self._fingerprint

    # -- validity -----------------------------------------------------------

    @property
    def not_before(self) -> float:
        return self.raw.not_valid_before_utc.timestamp()

    @property
    def not_after(self) -> float:
        return self.raw.not_valid_after_utc.timestamp()

    def valid_at(self, epoch: float, skew: float = CLOCK_SKEW) -> bool:
        return self.not_before - skew <= epoch <= self.not_after + skew

    def seconds_remaining(self, clock: Clock) -> float:
        """Lifetime left; negative once expired."""
        return self.not_after - clock.now()

    # -- extensions -----------------------------------------------------------

    @cached_property
    def is_ca(self) -> bool:
        try:
            ext = self.raw.extensions.get_extension_for_class(x509.BasicConstraints)
        except x509.ExtensionNotFound:
            return False
        return bool(ext.value.ca)

    @cached_property
    def restrictions_payload(self) -> dict | None:
        """The decoded §6.5 restrictions extension, if present."""
        try:
            ext = self.raw.extensions.get_extension_for_oid(RESTRICTIONS_OID)
        except x509.ExtensionNotFound:
            return None
        value = ext.value
        data = value.value if isinstance(value, x509.UnrecognizedExtension) else None
        if data is None:
            raise ValidationError("malformed restrictions extension")
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError("undecodable restrictions extension") from exc
        if not isinstance(payload, dict):
            raise ValidationError("restrictions extension is not an object")
        return payload

    # -- signature ------------------------------------------------------------

    def signed_by(self, issuer_key: PublicKey) -> bool:
        """True iff this certificate's signature verifies under ``issuer_key``.

        The last success is remembered against the ``issuer_key`` *object*
        (both are immutable, so it stays true); a failure is never
        remembered.
        """
        if self.__dict__.get("_verified_by") is issuer_key:
            return True
        algo = self.raw.signature_hash_algorithm
        if algo is None:
            return False
        try:
            issuer_key.raw.verify(
                self.raw.signature,
                self.raw.tbs_certificate_bytes,
                padding.PKCS1v15(),
                algo,
            )
        except Exception:  # noqa: BLE001 - any failure is "not signed by"
            return False
        self.__dict__["_verified_by"] = issuer_key
        return True

    # -- serialization ----------------------------------------------------------

    @cached_property
    def _pem(self) -> bytes:
        return self.raw.public_bytes(serialization.Encoding.PEM)

    def to_pem(self) -> bytes:
        return self._pem

    @classmethod
    def from_pem(cls, pem: bytes) -> Certificate:
        """The first certificate in ``pem``."""
        known = _table.lookup(pem)
        if known is not None:
            return known[0]
        try:
            return _table.intern(x509.load_pem_x509_certificate(pem))
        except ValueError as exc:
            raise ValidationError("malformed certificate PEM") from exc

    @classmethod
    def list_from_pem(cls, pem: bytes) -> list[Certificate]:
        """All certificates in a PEM bundle, in order (a new list per call)."""
        known = _table.lookup(pem)
        if known is not None:
            return known
        try:
            return [_table.intern(c) for c in x509.load_pem_x509_certificates(pem)]
        except ValueError as exc:
            raise ValidationError("malformed certificate bundle") from exc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Certificate):
            return NotImplemented
        return self.raw == other.raw

    def __hash__(self) -> int:
        return hash(self.raw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Certificate subject={self.subject} serial={self.serial}>"


class _CertificateTable:
    """The process's parsed certificates, keyed by canonical PEM block.

    Only the ``cryptography`` loaders decide what bytes mean: a bundle is
    answered from the table only when it is exactly a run of blocks that
    loader produced before, and anything else (other blocks, other line
    endings, a defect) is parsed in full and its certificates interned.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._certs: OrderedDict[bytes, Certificate] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._certs)

    def lookup(self, pem: bytes) -> list[Certificate] | None:
        """The certificates of ``pem`` if every block is known, else None."""
        if not isinstance(pem, bytes) or not pem.endswith(_PEM_END):
            return None
        blocks = [part + _PEM_END for part in pem.split(_PEM_END)[:-1]]
        with self._lock:
            found = [self._certs.get(block) for block in blocks]
            if any(cert is None for cert in found):
                return None
            for block in blocks:
                self._certs.move_to_end(block)
        return found  # type: ignore[return-value]

    def intern(self, raw: x509.Certificate) -> Certificate:
        """The table's object for ``raw``, added if new."""
        block = raw.public_bytes(serialization.Encoding.PEM)
        with self._lock:
            cert = self._certs.get(block)
            if cert is None:
                cert = Certificate(raw)
                cert.__dict__["_pem"] = block
                self._certs[block] = cert
                while len(self._certs) > self.size:
                    self._certs.popitem(last=False)
            else:
                self._certs.move_to_end(block)
        return cert


_table = _CertificateTable(TABLE_SIZE)


def build_certificate(
    *,
    subject: DistinguishedName,
    issuer: DistinguishedName,
    subject_public_key: PublicKey,
    signing_key: KeyPair,
    serial: int,
    not_before: float,
    not_after: float,
    is_ca: bool = False,
    path_length: int | None = None,
    restrictions: dict | None = None,
) -> Certificate:
    """Mint and sign a certificate.  The only certificate factory in the repo."""
    if not_after <= not_before:
        raise ValidationError("certificate lifetime is empty or negative")
    from datetime import datetime, timezone

    builder = (
        x509.CertificateBuilder()
        .subject_name(subject.to_x509())
        .issuer_name(issuer.to_x509())
        .public_key(subject_public_key.raw)
        .serial_number(serial)
        .not_valid_before(datetime.fromtimestamp(not_before, tz=timezone.utc))
        .not_valid_after(datetime.fromtimestamp(not_after, tz=timezone.utc))
        .add_extension(
            x509.BasicConstraints(ca=is_ca, path_length=path_length), critical=True
        )
    )
    if restrictions is not None:
        payload = json.dumps(restrictions, sort_keys=True).encode("utf-8")
        builder = builder.add_extension(
            x509.UnrecognizedExtension(RESTRICTIONS_OID, payload), critical=False
        )
    return Certificate(builder.sign(signing_key.raw, hashes.SHA256()))
