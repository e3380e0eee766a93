"""GSI proxy credentials (§2.3) and restricted proxies (§6.5).

A proxy credential "has its own private key and certificate, and is signed
using the user's long-term credential ... in effect a short-term binding of
the user's DN to an alternate private key."  We implement the *legacy GSI*
profile the paper used:

- the proxy subject is the issuer subject plus ``CN=proxy`` (full) or
  ``CN=limited proxy`` (limited);
- the proxy certificate is signed by the issuer's *private key* (which may
  itself be a proxy key — delegation chains, §2.4);
- once a chain passes through a limited proxy, every further proxy must be
  limited too (the classic GSI limitation-propagation rule);
- a JSON restrictions extension stands in for the restricted-delegation
  profile of [15, 16] (§6.5): allowed operations, allowed resources and a
  remaining-delegation-depth bound.

Two entry points, over one decision of a proxy's lifetime and authority
(:func:`issuance_bound`, which every issuer signs and every acceptor checks):

- :func:`create_proxy` — local proxy creation, i.e. ``grid-proxy-init``
  (§2.5): generate a fresh key pair and sign it here.
- :func:`sign_proxy_request` — the *delegation* half: sign a proxy over a
  public key generated by the remote party, so the private key never
  travels (§2.4).  :mod:`repro.transport.delegation` and the MyProxy server
  both use this.
"""

from __future__ import annotations

import enum
import math
import secrets
from dataclasses import dataclass
from typing import ClassVar

from repro.pki.certs import Certificate, build_certificate
from repro.pki.credentials import Credential
from repro.pki.keys import KeyPair, KeySource, PublicKey
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import CredentialError, PolicyError, ValidationError

DEFAULT_PROXY_LIFETIME = 12 * 3600.0
"""§2.3: proxies live "on the order of hours or days"."""
BACKDATE = 60.0
"""A proxy is valid from this long before the instant it was issued, for
relying parties whose clocks run a little behind the issuer's."""


class ProxyType(enum.Enum):
    """How a certificate participates in a proxy chain."""

    EEC = "eec"
    FULL = "full"
    LIMITED = "limited"

    @classmethod
    def of(cls, certificate: Certificate) -> ProxyType:
        subject = certificate.subject
        if not subject.last_cn_is_proxy:
            return cls.EEC
        return cls.LIMITED if subject.last_cn_is_limited else cls.FULL


@dataclass(frozen=True)
class ProxyRestrictions:
    """Fine-grained limits carried inside a proxy certificate (§6.5).

    ``None`` for a field means *unrestricted*.  Restrictions only ever
    narrow: combining two restriction sets intersects them, so a delegate
    can never escape what its delegator imposed.
    """

    operations: frozenset[str] | None = None
    resources: frozenset[str] | None = None
    max_delegation_depth: int | None = None

    UNRESTRICTED: ClassVar["ProxyRestrictions"]

    def to_payload(self) -> dict:
        return {
            "operations": sorted(self.operations) if self.operations is not None else None,
            "resources": sorted(self.resources) if self.resources is not None else None,
            "max_delegation_depth": self.max_delegation_depth,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> ProxyRestrictions:
        def _set(value: object) -> frozenset[str] | None:
            if value is None:
                return None
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ValidationError("malformed restriction list")
            return frozenset(value)

        depth = payload.get("max_delegation_depth")
        if depth is not None and (not isinstance(depth, int) or depth < 0):
            raise ValidationError("malformed max_delegation_depth")
        return cls(
            operations=_set(payload.get("operations")),
            resources=_set(payload.get("resources")),
            max_delegation_depth=depth,
        )

    @property
    def is_unrestricted(self) -> bool:
        return (
            self.operations is None
            and self.resources is None
            and self.max_delegation_depth is None
        )

    def narrowed_by(self, other: ProxyRestrictions) -> ProxyRestrictions:
        """Intersection of two restriction sets (never widens)."""

        def _meet(a: frozenset[str] | None, b: frozenset[str] | None):
            if a is None:
                return b
            if b is None:
                return a
            return a & b

        depths = [d for d in (self.max_delegation_depth, other.max_delegation_depth) if d is not None]
        return ProxyRestrictions(
            operations=_meet(self.operations, other.operations),
            resources=_meet(self.resources, other.resources),
            max_delegation_depth=min(depths) if depths else None,
        )

    def permits(self, operation: str, resource: str | None = None) -> bool:
        """Would a service enforcing these restrictions allow the request?"""
        if self.operations is not None and operation not in self.operations:
            return False
        if resource is not None and self.resources is not None and resource not in self.resources:
            return False
        return True


ProxyRestrictions.UNRESTRICTED = ProxyRestrictions()


def _proxy_serial() -> int:
    """Proxy serials are random: proxies are minted by users, not the CA."""
    return secrets.randbits(63) | 1


@dataclass(frozen=True)
class IssuanceBound:
    """What one proxy may be, decided at ``now`` by :func:`issuance_bound`:
    the granted ``lifetime``, its end, the ``restrictions`` its certificate
    carries and its remaining ``depth`` (``None``: none, unbounded)."""

    now: float
    lifetime: float
    not_after: float
    limited: bool
    restrictions: ProxyRestrictions | None
    depth: int | None


def issuance_bound(
    issuer: Credential,
    lifetime: float,
    now: float,
    *,
    default: float | None = None,
    maximum: float | None = None,
    cap: float | None = None,
    expires: float | None = None,
    limited: bool = False,
    restrictions: ProxyRestrictions | None = None,
) -> IssuanceBound:
    """How long and how much a proxy of ``issuer`` may be (§2.3/§2.4,
    §4.3), for every path that signs one; a refusal is a
    :class:`PolicyError`.

    ``lifetime`` must be finite, and positive unless a ``default`` stands
    for ≤ 0 (and then for the ``maximum`` too).  It is granted under the
    caps given (a policy ``maximum``, an entry's ``cap`` and its
    ``expires`` instant) and ends no later than the issuer.  A CA issues
    nothing, a limited issuer only limited proxies, an exhausted depth
    nothing; ``restrictions`` narrow by the issuer chain's.
    """
    if issuer.certificate.is_ca:
        raise PolicyError("CA certificates must not sign proxies")
    if not math.isfinite(lifetime):
        raise PolicyError("proxy lifetime must be finite")
    if default is not None and lifetime <= 0:
        lifetime = maximum = default  # for 0, the default stands for the maximum
    caps = (maximum, cap, None if expires is None else expires - now)
    lifetime = min([lifetime, *(c for c in caps if c is not None)])
    if lifetime <= 0:
        raise PolicyError("proxy lifetime must be positive")
    if ProxyType.of(issuer.certificate) is ProxyType.LIMITED and not limited:
        raise PolicyError("a limited proxy may only delegate limited proxies")

    inherited = effective_restrictions(issuer.full_chain())
    left = inherited.max_delegation_depth
    if left is not None and left <= 0:
        raise PolicyError("restriction forbids further delegation (depth exhausted)")
    if restrictions is not None:
        restrictions = restrictions.narrowed_by(inherited)
    below = ProxyRestrictions(max_delegation_depth=None if left is None else left - 1)
    depth = (restrictions or below).narrowed_by(below).max_delegation_depth

    not_after = min(now + lifetime, issuer.certificate.not_after)
    if not_after <= now:
        raise PolicyError("issuer credential has already expired")
    return IssuanceBound(now, lifetime, not_after, limited, restrictions, depth)


def sign_proxy_request(
    issuer: Credential,
    subject_public_key: PublicKey,
    *,
    lifetime: float = DEFAULT_PROXY_LIFETIME,
    limited: bool = False,
    restrictions: ProxyRestrictions | None = None,
    clock: Clock = SYSTEM_CLOCK,
    bound: IssuanceBound | None = None,
) -> Certificate:
    """Sign a proxy certificate over a key pair held by someone else: what
    ``bound`` says, or else the :func:`issuance_bound` of ``lifetime``,
    ``limited`` and ``restrictions`` now."""
    if issuer.key is None:
        raise CredentialError("cannot sign a proxy without the issuer's private key")
    bound = bound or issuance_bound(
        issuer, lifetime, clock.now(), limited=limited, restrictions=restrictions
    )
    return build_certificate(
        subject=issuer.certificate.subject.proxy_subject(limited=bound.limited),
        issuer=issuer.certificate.subject,
        subject_public_key=subject_public_key,
        signing_key=issuer.key,
        serial=_proxy_serial(),
        not_before=bound.now - BACKDATE,
        not_after=bound.not_after,
        is_ca=False,
        restrictions=None if bound.restrictions is None else bound.restrictions.to_payload(),
    )


def create_proxy(
    issuer: Credential,
    *,
    key_source: KeySource | None = None,
    key_bits: int | None = None,
    clock: Clock = SYSTEM_CLOCK,
    **terms,
) -> Credential:
    """``grid-proxy-init``: mint a fresh local proxy credential (§2.5).

    Generates a new key pair, signs it with ``issuer`` under ``terms``
    (:func:`sign_proxy_request`'s ``lifetime``, ``limited`` and
    ``restrictions``) and returns the full bundle (proxy cert + new key +
    chain back to the EEC).
    """
    if key_source is not None:
        key = key_source.new_key()
    else:
        key = KeyPair.generate(key_bits if key_bits is not None else issuer.require_key().bits)
    cert = sign_proxy_request(issuer, key.public, clock=clock, **terms)
    return Credential(certificate=cert, key=key, chain=issuer.full_chain())


def effective_restrictions(chain: tuple[Certificate, ...]) -> ProxyRestrictions:
    """Intersect the restriction payloads along a chain (leaf first).

    ``max_delegation_depth`` is *consumed* by distance: a payload of depth
    ``d`` on a certificate three links above the leaf contributes
    ``d - 3`` to the leaf's remaining allowance.  A negative remaining
    allowance means the chain already delegated further than the
    restriction permitted — validators must reject such chains.
    """
    combined = ProxyRestrictions.UNRESTRICTED
    for distance, cert in enumerate(chain):
        payload = cert.restrictions_payload
        if payload is None:
            continue
        restriction = ProxyRestrictions.from_payload(payload)
        if restriction.max_delegation_depth is not None:
            restriction = ProxyRestrictions(
                operations=restriction.operations,
                resources=restriction.resources,
                max_delegation_depth=restriction.max_delegation_depth - distance,
            )
        combined = combined.narrowed_by(restriction)
    return combined
