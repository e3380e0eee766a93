"""Certificate-chain validation, including the GSI proxy rules (§2.1–§2.3).

Stock X.509 validators reject proxy chains — the "issuer" of a proxy is an
end-entity certificate, which classic path validation forbids.  This module
implements the GSI path algorithm:

1. the chain (leaf first) must terminate in a certificate issued by a
   configured *trust anchor* (a CA root);
2. the certificate directly under the CA is the end-entity certificate
   (EEC): not CA-shaped, not proxy-shaped, CRL-checked against its CA;
3. every certificate below the EEC must follow the proxy rules — subject is
   the issuer's subject plus one ``CN=proxy``/``CN=limited proxy``
   component, signed by the issuer's key, not a CA, and *limitation
   propagates*: below a limited proxy only limited proxies may appear;
4. every certificate must be inside its own validity window (± skew);
5. restriction extensions (§6.5) intersect along the chain.

The output, :class:`ValidatedIdentity`, is what every authorization decision
in the system consumes: the effective user DN, the proxy type, and the
effective restrictions.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

from repro.pki.ca import CertificateRevocationList, validate_crl
from repro.pki.certs import CLOCK_SKEW, Certificate
from repro.pki.names import DistinguishedName
from repro.pki.proxy import ProxyRestrictions, ProxyType, effective_restrictions
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import ExpiredError, RevokedError, ValidationError

MAX_PROXY_DEPTH = 16
"""Hard ceiling on delegation chain length, against pathological chains."""

CACHE_BUCKET_SECONDS = 300.0
"""Default width of the chain-cache time bucket: a cached verdict is reused
for at most this long before the signatures are re-walked, which bounds how
stale the CRL-age check (strict ``crl_max_age`` mode) can get."""

CACHE_SIZE = 1024
"""Default LRU capacity of the validated-chain cache."""


@dataclass(frozen=True)
class ValidatedIdentity:
    """The result of successful chain validation."""

    subject: DistinguishedName
    identity: DistinguishedName
    proxy_type: ProxyType
    proxy_depth: int
    restrictions: ProxyRestrictions
    leaf: Certificate
    eec: Certificate
    anchor: Certificate

    @property
    def is_limited(self) -> bool:
        return self.proxy_type is ProxyType.LIMITED

    def permits(self, operation: str, resource: str | None = None) -> bool:
        """Restriction check a Grid service applies before serving (§6.5)."""
        return self.restrictions.permits(operation, resource)

    @property
    def not_after(self) -> float:
        """Earliest expiry along the validated chain."""
        return self.leaf.not_after


class ChainValidator:
    """Validates certificate chains against a set of trusted CA roots.

    Thread-safe; one validator is typically shared by a whole server.  CRLs
    are pushed in via :meth:`update_crl` (pull-based distribution, as in
    deployed Grid CAs).
    """

    def __init__(
        self,
        trust_anchors: Sequence[Certificate],
        *,
        clock: Clock = SYSTEM_CLOCK,
        skew: float = CLOCK_SKEW,
        max_proxy_depth: int = MAX_PROXY_DEPTH,
        crl_max_age: float | None = None,
        cache_size: int = CACHE_SIZE,
        cache_bucket: float = CACHE_BUCKET_SECONDS,
    ) -> None:
        self.clock = clock
        self.skew = skew
        self.max_proxy_depth = max_proxy_depth
        #: If set, EECs are refused when their CA's CRL is *missing or
        #: older* than this many seconds — the strict mode for sites that
        #: treat "no fresh revocation data" as "no" (defaults to lenient,
        #: as deployed Grid validators were).
        self.crl_max_age = crl_max_age
        self._anchors: dict[DistinguishedName, Certificate] = {}
        for anchor in trust_anchors:
            if not anchor.is_ca:
                raise ValidationError(f"trust anchor {anchor.subject} is not a CA")
            if not anchor.signed_by(anchor.public_key):
                raise ValidationError(f"trust anchor {anchor.subject} is not self-signed")
            self._anchors[anchor.subject] = anchor
        if not self._anchors:
            raise ValidationError("a validator needs at least one trust anchor")
        self._crls: dict[DistinguishedName, CertificateRevocationList] = {}
        # -- validated-chain cache (keyed by digest + generation + bucket) --
        # ``_generation`` counts trust-material changes; it is baked into
        # every cache key *and* every outstanding session-resumption ticket,
        # so one add_anchor/update_crl invalidates both at a stroke.
        self._generation = 0
        self.cache_size = max(int(cache_size), 0)
        self.cache_bucket = cache_bucket
        self._cache: OrderedDict[tuple, tuple[ValidatedIdentity, float, float]] = (
            OrderedDict()
        )
        self._cache_lock = threading.Lock()
        self._cache_hits = 0
        self._cache_misses = 0
        self._metric_hits = None
        self._metric_misses = None

    @property
    def anchors(self) -> tuple[Certificate, ...]:
        return tuple(self._anchors.values())

    @property
    def generation(self) -> int:
        """Monotonic counter of trust-material changes (anchors + CRLs)."""
        return self._generation

    def add_anchor(self, anchor: Certificate) -> None:
        if not anchor.is_ca or not anchor.signed_by(anchor.public_key):
            raise ValidationError("refusing non-self-signed trust anchor")
        self._anchors[anchor.subject] = anchor
        self._bump_generation()

    def update_crl(self, crl: CertificateRevocationList) -> None:
        """Install a CRL after verifying its signature against its CA."""
        anchor = self._anchors.get(crl.issuer)
        if anchor is None:
            raise ValidationError(f"CRL from unknown CA {crl.issuer}")
        validate_crl(crl, anchor)
        self._crls[crl.issuer] = crl
        self._bump_generation()

    def _bump_generation(self) -> None:
        with self._cache_lock:
            self._generation += 1
            self._cache.clear()

    def cache_stats(self) -> dict[str, int]:
        with self._cache_lock:
            return {
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "entries": len(self._cache),
                "generation": self._generation,
            }

    def publish_metrics(self, registry) -> None:
        """Expose cache hit/miss counters through an obs registry."""
        family = registry.counter(
            "myproxy_chain_cache_total",
            "Validated-chain cache lookups by result.",
            labelnames=("result",),
        )
        self._metric_hits = family.labels(result="hit")
        self._metric_misses = family.labels(result="miss")

    @property
    def crls(self) -> tuple[CertificateRevocationList, ...]:
        """The installed CRLs (for redistribution — see TRUSTROOTS)."""
        return tuple(self._crls.values())

    # -- the path algorithm ---------------------------------------------------

    def validate(self, chain: Sequence[Certificate]) -> ValidatedIdentity:
        """Validate ``chain`` (leaf first) and return the proven identity.

        Raises :class:`ValidationError` (or a subclass —
        :class:`ExpiredError`, :class:`RevokedError`) on any defect.

        Recently validated chains are served from an LRU cache keyed by
        the chain's fingerprints, the trust-material generation, and a time
        bucket.  A hit skips the signature walk but still re-checks the
        validity window at *now* and the EEC against the installed CRL,
        so a hit can never outlive the chain it vouches for; any
        ``add_anchor``/``update_crl`` clears the cache wholesale.
        """
        certs = [c for c in chain]
        if self.cache_size <= 0 or not certs:
            return self._validate_full(certs)
        now = self.clock.now()
        key = (
            tuple(c.fingerprint() for c in certs),
            self._generation,
            int(now // self.cache_bucket) if self.cache_bucket > 0 else 0,
        )
        cached = self._cache_get(key, now)
        if cached is not None:
            return cached
        identity = self._validate_full(certs)
        window_lo = max(c.not_before for c in certs + [identity.anchor])
        window_hi = min(c.not_after for c in certs + [identity.anchor])
        with self._cache_lock:
            self._cache_misses += 1
            self._cache[key] = (identity, window_lo, window_hi)
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        if self._metric_misses is not None:
            self._metric_misses.inc()
        return identity

    def _cache_get(self, key: tuple, now: float) -> ValidatedIdentity | None:
        with self._cache_lock:
            entry = self._cache.get(key)
            if entry is None:
                return None
            identity, window_lo, window_hi = entry
            if not (window_lo - self.skew <= now <= window_hi + self.skew):
                del self._cache[key]
                return None
            # Generation is baked into the key, so the CRL cannot have
            # changed since the entry was stored — but re-checking the EEC
            # serial is one set lookup, and defense-in-depth is free here.
            crl = self._crls.get(identity.anchor.subject)
            if crl is not None and crl.is_revoked(identity.eec.serial):
                del self._cache[key]
                return None
            self._cache.move_to_end(key)
            self._cache_hits += 1
        if self._metric_hits is not None:
            self._metric_hits.inc()
        return identity

    def _validate_full(self, certs: list[Certificate]) -> ValidatedIdentity:
        if not certs:
            raise ValidationError("empty certificate chain")
        # Peers may append the CA root itself; drop it, we trust our own copy.
        while certs and certs[-1].subject in self._anchors:
            dropped = certs.pop()
            if self._anchors[dropped.subject].raw != dropped.raw:
                raise ValidationError(
                    f"chain carries a different certificate for trusted CA "
                    f"{dropped.subject}"
                )
        if not certs:
            raise ValidationError("chain contains only the trust anchor")
        if len(certs) - 1 > self.max_proxy_depth:
            raise ValidationError(
                f"proxy chain depth {len(certs) - 1} exceeds maximum "
                f"{self.max_proxy_depth}"
            )

        now = self.clock.now()
        top = certs[-1]
        anchor = self._anchors.get(top.issuer)
        if anchor is None:
            raise ValidationError(f"chain does not reach a trusted CA: {top.issuer}")
        if not anchor.valid_at(now, self.skew):
            raise ExpiredError(f"trust anchor {anchor.subject} is outside validity")
        self._check_one(top, parent_key=anchor.public_key, now=now, label="EEC")
        if top.is_ca:
            raise ValidationError("end-entity certificate asserts CA=TRUE")
        if top.subject.last_cn_is_proxy:
            raise ValidationError("CA-issued certificate has a proxy-shaped subject")
        crl = self._crls.get(anchor.subject)
        if self.crl_max_age is not None:
            if crl is None:
                raise ValidationError(
                    f"no CRL installed for {anchor.subject} (strict mode)"
                )
            if now - crl.issued_at > self.crl_max_age:
                raise ValidationError(
                    f"CRL for {anchor.subject} is {now - crl.issued_at:.0f}s old "
                    f"(max {self.crl_max_age:.0f}s)"
                )
        if crl is not None and crl.is_revoked(top.serial):
            raise RevokedError(f"certificate {top.subject} (serial {top.serial}) is revoked")

        # Walk downward from the EEC to the leaf, enforcing proxy rules.
        limited_seen = False
        for child_index in range(len(certs) - 2, -1, -1):
            child = certs[child_index]
            parent = certs[child_index + 1]
            self._check_one(child, parent_key=parent.public_key, now=now, label="proxy")
            if child.is_ca:
                raise ValidationError("proxy certificate asserts CA=TRUE")
            if not child.subject.is_proxy_of(parent.subject):
                raise ValidationError(
                    f"{child.subject} does not follow the proxy naming rule "
                    f"for issuer {parent.subject}"
                )
            if child.issuer != parent.subject:
                raise ValidationError("proxy issuer field does not match signer subject")
            is_limited = child.subject.last_cn_is_limited
            if limited_seen and not is_limited:
                raise ValidationError(
                    "full proxy appears below a limited proxy (limitation must propagate)"
                )
            limited_seen = limited_seen or is_limited

        restrictions = effective_restrictions(tuple(certs))
        if restrictions.max_delegation_depth is not None and restrictions.max_delegation_depth < 0:
            raise ValidationError("delegation depth restriction exceeded")

        leaf = certs[0]
        return ValidatedIdentity(
            subject=leaf.subject,
            identity=leaf.subject.base_identity(),
            proxy_type=ProxyType.of(leaf),
            proxy_depth=len(certs) - 1,
            restrictions=restrictions,
            leaf=leaf,
            eec=top,
            anchor=anchor,
        )

    def _check_one(
        self, cert: Certificate, *, parent_key, now: float, label: str
    ) -> None:
        if not cert.signed_by(parent_key):
            raise ValidationError(
                f"bad signature on {label} certificate {cert.subject}"
            )
        if now < cert.not_before - self.skew:
            raise ValidationError(
                f"{label} certificate {cert.subject} is not yet valid"
            )
        if now > cert.not_after + self.skew:
            raise ExpiredError(f"{label} certificate {cert.subject} has expired")
