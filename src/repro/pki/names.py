"""Distinguished Names (§2.1).

GSI identifies every entity by a globally unique Distinguished Name and
renders it in the Globus "slash" form, e.g.::

    /O=Grid/OU=Example/CN=Alice

:class:`DistinguishedName` is an immutable ordered sequence of
``(attribute, value)`` pairs that round-trips with both the slash form and
``cryptography``'s :class:`~cryptography.x509.Name`.  It also implements the
*proxy naming rule* of legacy GSI: a proxy certificate's subject is its
issuer's subject with one extra ``CN=proxy`` (or ``CN=limited proxy``)
component appended (§2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, total_ordering

from cryptography import x509
from cryptography.x509.oid import NameOID

from repro.util.errors import ValidationError

_ATTR_TO_OID = {
    "C": NameOID.COUNTRY_NAME,
    "ST": NameOID.STATE_OR_PROVINCE_NAME,
    "L": NameOID.LOCALITY_NAME,
    "O": NameOID.ORGANIZATION_NAME,
    "OU": NameOID.ORGANIZATIONAL_UNIT_NAME,
    "CN": NameOID.COMMON_NAME,
    "DC": NameOID.DOMAIN_COMPONENT,
    "EMAIL": NameOID.EMAIL_ADDRESS,
}
_OID_TO_ATTR = {oid: attr for attr, oid in _ATTR_TO_OID.items()}

PROXY_CN = "proxy"
LIMITED_PROXY_CN = "limited proxy"


@total_ordering
@dataclass(frozen=True)
class DistinguishedName:
    """An ordered, immutable Distinguished Name."""

    rdns: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        for attr, value in self.rdns:
            if attr not in _ATTR_TO_OID:
                raise ValidationError(f"unsupported DN attribute {attr!r}")
            if not value:
                raise ValidationError(f"empty value for DN attribute {attr!r}")

    # -- construction -----------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> DistinguishedName:
        """Parse the Globus slash form (``/O=Grid/CN=Alice``)."""
        if not text.startswith("/"):
            raise ValidationError(f"DN must start with '/': {text!r}")
        rdns: list[tuple[str, str]] = []
        for part in text.split("/")[1:]:
            if not part:
                raise ValidationError(f"empty DN component in {text!r}")
            attr, sep, value = part.partition("=")
            if not sep:
                # Globus convention: a slash-bearing value such as
                # "CN=host/myproxy.example.org" parses as a continuation of
                # the previous component.
                if not rdns:
                    raise ValidationError(f"DN component without '=': {part!r}")
                prev_attr, prev_value = rdns[-1]
                rdns[-1] = (prev_attr, f"{prev_value}/{part}")
                continue
            rdns.append((attr.strip().upper(), value.strip()))
        if not rdns:
            raise ValidationError("empty DN")
        return cls(tuple(rdns))

    @classmethod
    def from_x509(cls, name: x509.Name) -> DistinguishedName:
        rdns = []
        for rdn in name.rdns:
            for attribute in rdn:
                attr = _OID_TO_ATTR.get(attribute.oid)
                if attr is None:
                    raise ValidationError(
                        f"unsupported OID in certificate name: {attribute.oid}"
                    )
                value = attribute.value
                if isinstance(value, bytes):
                    value = value.decode("utf-8")
                rdns.append((attr, value))
        return cls(tuple(rdns))

    @classmethod
    def grid_user(cls, organization: str, unit: str, common_name: str) -> DistinguishedName:
        """Convenience for the canonical Grid user shape."""
        return cls((("O", organization), ("OU", unit), ("CN", common_name)))

    # -- rendering ---------------------------------------------------------

    @cached_property
    def _x509(self) -> x509.Name:
        return x509.Name(
            [x509.NameAttribute(_ATTR_TO_OID[attr], value) for attr, value in self.rdns]
        )

    def to_x509(self) -> x509.Name:
        """The ``cryptography`` form, built once per DN object (a DN held
        by a parsed certificate is reused by every proxy it signs)."""
        return self._x509

    def __str__(self) -> str:
        return "".join(f"/{attr}={value}" for attr, value in self.rdns)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, DistinguishedName):
            return NotImplemented
        return self.rdns < other.rdns

    # -- structure ---------------------------------------------------------

    @property
    def common_name(self) -> str | None:
        """The value of the last CN component, if any."""
        for attr, value in reversed(self.rdns):
            if attr == "CN":
                return value
        return None

    def with_component(self, attr: str, value: str) -> DistinguishedName:
        """A new DN with one component appended."""
        return DistinguishedName(self.rdns + ((attr.upper(), value),))

    # -- proxy naming rule (§2.3) -------------------------------------------

    def proxy_subject(self, limited: bool = False) -> DistinguishedName:
        """The subject DN a proxy issued by this identity must carry.

        Built once per DN object, like :meth:`to_x509`, so every proxy a
        stored credential signs reuses one subject and its ``x509.Name``."""
        return self._proxy_subjects[limited]

    @cached_property
    def _proxy_subjects(self) -> tuple[DistinguishedName, DistinguishedName]:
        return (
            self.with_component("CN", PROXY_CN),
            self.with_component("CN", LIMITED_PROXY_CN),
        )

    def is_proxy_of(self, issuer: DistinguishedName) -> bool:
        """True if this DN follows the proxy naming rule for ``issuer``."""
        if len(self.rdns) != len(issuer.rdns) + 1:
            return False
        if self.rdns[: len(issuer.rdns)] != issuer.rdns:
            return False
        attr, value = self.rdns[-1]
        return attr == "CN" and value in (PROXY_CN, LIMITED_PROXY_CN)

    @property
    def last_cn_is_proxy(self) -> bool:
        attr, value = self.rdns[-1]
        return attr == "CN" and value in (PROXY_CN, LIMITED_PROXY_CN)

    @property
    def last_cn_is_limited(self) -> bool:
        attr, value = self.rdns[-1]
        return attr == "CN" and value == LIMITED_PROXY_CN

    def base_identity(self) -> DistinguishedName:
        """Strip every trailing proxy CN, yielding the user's own DN.

        Grid resources authorize on this *effective identity*: a proxy chain
        of any depth still names the same user (§2.3).
        """
        rdns = list(self.rdns)
        while len(rdns) > 1:
            attr, value = rdns[-1]
            if attr == "CN" and value in (PROXY_CN, LIMITED_PROXY_CN):
                rdns.pop()
            else:
                break
        return DistinguishedName(tuple(rdns))
