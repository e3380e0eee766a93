"""Certificate Authority (§2.1).

The paper's trust model starts from CAs: "a digital signature from a trusted
party known as a Certificate Authority" binds a DN to a key, with a lifetime
"on the order of years ... determined by the policy of the CA".

:class:`CertificateAuthority` is a complete in-process CA:

- self-signed root certificate;
- issuance of end-entity (user and host) certificates against a supplied
  public key, under a configurable lifetime policy;
- monotonic serial numbers;
- revocation with a signed CRL (§2.1: "until the theft was discovered and
  the certificate revoked by the CA").
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

from repro.pki.certs import Certificate, build_certificate
from repro.pki.credentials import Credential
from repro.pki.keys import DEFAULT_KEY_BITS, KeyPair, PublicKey
from repro.pki.names import DistinguishedName
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import PolicyError, ValidationError

ONE_HOUR = 3600.0
ONE_DAY = 24 * ONE_HOUR
ONE_YEAR = 365 * ONE_DAY


@dataclass(frozen=True)
class CaPolicy:
    """Issuance policy knobs for a CA."""

    max_lifetime: float = ONE_YEAR
    default_lifetime: float = ONE_YEAR
    ca_lifetime: float = 10 * ONE_YEAR
    backdate: float = 300.0  # tolerate issuee clock skew


@dataclass(frozen=True)
class CertificateRevocationList:
    """A signed snapshot of revoked serial numbers."""

    issuer: DistinguishedName
    serials: frozenset[int]
    issued_at: float
    signature: bytes

    @staticmethod
    def _message(issuer: DistinguishedName, serials: frozenset[int], issued_at: float) -> bytes:
        body = json.dumps(
            {"issuer": str(issuer), "serials": sorted(serials), "issued_at": issued_at},
            sort_keys=True,
        )
        return body.encode("utf-8")

    def verify(self, ca_key: PublicKey) -> bool:
        return ca_key.verify(
            self.signature, self._message(self.issuer, self.serials, self.issued_at)
        )

    def is_revoked(self, serial: int) -> bool:
        return serial in self.serials

    # -- file distribution (trust directories) -----------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "issuer": str(self.issuer),
                "serials": sorted(self.serials),
                "issued_at": self.issued_at,
                "signature": self.signature.hex(),
            },
            sort_keys=True,
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "CertificateRevocationList":
        try:
            doc = json.loads(text)
            return cls(
                issuer=DistinguishedName.parse(doc["issuer"]),
                serials=frozenset(int(s) for s in doc["serials"]),
                issued_at=float(doc["issued_at"]),
                signature=bytes.fromhex(doc["signature"]),
            )
        except (KeyError, TypeError, ValueError, AttributeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"corrupt CRL file: {exc}") from exc


class CertificateAuthority:
    """An in-process Grid CA.

    Thread-safe: portals, services and tests may request issuance and
    revocation concurrently.
    """

    def __init__(
        self,
        name: DistinguishedName,
        *,
        key_bits: int = DEFAULT_KEY_BITS,
        policy: CaPolicy | None = None,
        clock: Clock = SYSTEM_CLOCK,
        key: KeyPair | None = None,
    ) -> None:
        self.policy = policy or CaPolicy()
        self.clock = clock
        self._key = key or KeyPair.generate(key_bits)
        self._lock = threading.Lock()
        self._next_serial = 2  # serial 1 is the root itself
        self._revoked: set[int] = set()
        now = clock.now()
        self._cert = build_certificate(
            subject=name,
            issuer=name,
            subject_public_key=self._key.public,
            signing_key=self._key,
            serial=1,
            not_before=now - self.policy.backdate,
            not_after=now + self.policy.ca_lifetime,
            is_ca=True,
            path_length=0,
        )

    # -- identity -----------------------------------------------------------

    @property
    def certificate(self) -> Certificate:
        """The self-signed root certificate (the trust anchor)."""
        return self._cert

    @property
    def name(self) -> DistinguishedName:
        return self._cert.subject

    @property
    def public_key(self) -> PublicKey:
        return self._key.public

    def export_credential(self) -> Credential:
        """The CA's own credential bundle (for offline CA-operator tooling).

        Handle with the care the root key deserves — callers normally
        encrypt it immediately via ``export_pem(passphrase)``.
        """
        return Credential(certificate=self._cert, key=self._key)

    # -- issuance -----------------------------------------------------------

    def _allocate_serial(self) -> int:
        with self._lock:
            serial = self._next_serial
            self._next_serial += 1
            return serial

    def issue(
        self,
        subject: DistinguishedName,
        public_key: PublicKey,
        lifetime: float | None = None,
    ) -> Certificate:
        """Sign an end-entity certificate for ``subject`` over ``public_key``.

        This is the CSR path: the subject generated its own key and only the
        public half reaches the CA, exactly as in a real enrollment.
        """
        if subject.last_cn_is_proxy:
            raise PolicyError("a CA must never issue a proxy-shaped subject")
        if subject == self.name:
            raise PolicyError("refusing to re-issue the CA's own name")
        lifetime = self.policy.default_lifetime if lifetime is None else lifetime
        if lifetime <= 0:
            raise PolicyError("requested lifetime must be positive")
        if lifetime > self.policy.max_lifetime:
            raise PolicyError(
                f"requested lifetime {lifetime:.0f}s exceeds CA policy "
                f"maximum {self.policy.max_lifetime:.0f}s"
            )
        now = self.clock.now()
        return build_certificate(
            subject=subject,
            issuer=self.name,
            subject_public_key=public_key,
            signing_key=self._key,
            serial=self._allocate_serial(),
            not_before=now - self.policy.backdate,
            not_after=now + lifetime,
            is_ca=False,
        )

    def issue_credential(
        self,
        subject: DistinguishedName,
        *,
        lifetime: float | None = None,
        key_bits: int = DEFAULT_KEY_BITS,
        key: KeyPair | None = None,
    ) -> Credential:
        """Convenience: generate a key pair and issue a certificate over it.

        Real users run ``grid-cert-request`` and mail the CSR to their CA;
        the testbed and examples use this one-call form.
        """
        key = key or KeyPair.generate(key_bits)
        cert = self.issue(subject, key.public, lifetime)
        return Credential(certificate=cert, key=key, chain=())

    def issue_host_credential(self, hostname: str, **kwargs) -> Credential:
        """Issue a service/host credential (``CN=host/<name>`` convention)."""
        dn = self.name.base_identity()
        subject = DistinguishedName(
            tuple(rdn for rdn in dn.rdns if rdn[0] != "CN") + (("CN", f"host/{hostname}"),)
        )
        return self.issue_credential(subject, **kwargs)

    # -- revocation -----------------------------------------------------------

    def revoke(self, certificate: Certificate | int) -> None:
        """Revoke a certificate (by object or serial number)."""
        serial = certificate if isinstance(certificate, int) else certificate.serial
        if serial == 1:
            raise PolicyError("cannot revoke the CA root via its own CRL")
        with self._lock:
            self._revoked.add(serial)

    def is_revoked(self, serial: int) -> bool:
        with self._lock:
            return serial in self._revoked

    def crl(self) -> CertificateRevocationList:
        """A freshly signed revocation list."""
        with self._lock:
            serials = frozenset(self._revoked)
        issued_at = self.clock.now()
        message = CertificateRevocationList._message(self.name, serials, issued_at)
        return CertificateRevocationList(
            issuer=self.name,
            serials=serials,
            issued_at=issued_at,
            signature=self._key.sign(message),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CertificateAuthority {self.name}>"


def validate_crl(crl: CertificateRevocationList, ca_cert: Certificate) -> None:
    """Raise :class:`ValidationError` unless ``crl`` is signed by ``ca_cert``."""
    if crl.issuer != ca_cert.subject:
        raise ValidationError("CRL issuer does not match CA certificate")
    if not crl.verify(ca_cert.public_key):
        raise ValidationError("CRL signature verification failed")
