"""GSI delegation over an established secure channel (§2.4).

"Delegation is very similar to proxy credential creation ... the difference
is that the creation occurs over a GSI-authenticated connection, with the
result being the remote process acquiring proxy credentials for the user."

The flow (either side of a channel may play either role):

.. code-block:: text

    delegator                              acceptor
    ---------                              --------
    Offer(lifetime, limited, nonce) ---->
                                           generate fresh key pair
                                    <----  Request(public key, PoP signature)
    verify proof-of-possession
    sign proxy certificate
    Issue(proxy cert, issuer chain) ---->
                                           assemble Credential

The acceptor's *private key never crosses the wire* — the delegator only
ever sees the public half, and signs it after a proof-of-possession check
(the PoP signature covers the delegator's nonce, so it cannot be replayed
from an earlier delegation).

A requester that asks for its proxy inside a command (a MyProxy GET) can
skip the Offer: it makes its key first and sends a *CSR* —
public key plus a PoP signature over its own nonce and its authenticated
identity (:func:`make_csr`) — and the delegator answers with the Issue at
once (:func:`issue`, :func:`issue_message`).  Both MyProxy bindings' GET
carry one, and must; :func:`accept_csr_reply` takes the Issue.

Delegation *chains* (§2.4: "delegation can be chained") fall out naturally:
an accepted delegated credential is itself a valid issuer for the next hop,
subject to the limited-proxy and restriction rules of :mod:`repro.pki.proxy`.
"""

from __future__ import annotations

import base64
import secrets

from repro.pki.certs import CLOCK_SKEW, Certificate
from repro.pki.credentials import Credential
from repro.pki.keys import FreshKeySource, KeyPair, KeySource, PublicKey
from repro.pki.names import DistinguishedName
from repro.pki.proxy import (
    BACKDATE,
    DEFAULT_PROXY_LIFETIME,
    IssuanceBound,
    ProxyRestrictions,
    issuance_bound,
    sign_proxy_request,
)
from repro.transport.channel import SecureChannel
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.encoding import pack_fields, unpack_fields
from repro.util.errors import CredentialError, PolicyError, ProtocolError

_T_OFFER = b"DG1"
_T_REQUEST = b"DG2"
_T_ISSUE = b"DG3"
_POP_LABEL = b"gsi-delegation-proof-of-possession-v1"
#: The PoP label of a CSR carried by a GSI GET (PROTOCOL.md §4).
CSR_POP_LABEL = b"gsi-get-csr-proof-of-possession-v1"


def _pop_message(nonce: bytes, public_pem: bytes) -> bytes:
    return _POP_LABEL + nonce + public_pem


# ---------------------------------------------------------------------------
# CSRs: a public key plus proof of possession, bound to the requester
# ---------------------------------------------------------------------------


def csr_nonce(payload) -> str:
    """The hex client nonce of ``payload`` (a CSR, or an HTTP request that
    asks the server for one)."""
    if not isinstance(payload, dict):
        raise ProtocolError("malformed CSR")
    nonce_hex = str(payload.get("nonce", ""))
    if len(nonce_hex) < 32:
        raise ProtocolError("CSR nonce too short")
    try:
        bytes.fromhex(nonce_hex)
    except ValueError:
        raise ProtocolError("CSR nonce is not hex") from None
    return nonce_hex


def _csr_message(
    label: bytes, nonce_hex: str, public_pem: bytes, requester: DistinguishedName
) -> bytes:
    return label + bytes.fromhex(nonce_hex) + public_pem + str(requester).encode()


def make_csr(
    key: KeyPair,
    nonce_hex: str,
    requester: DistinguishedName,
    *,
    label: bytes = CSR_POP_LABEL,
) -> dict:
    """A CSR for ``key``: its public half plus proof of possession over
    label ‖ ``nonce_hex`` ‖ public key ‖ ``requester``, the identity the
    *requesting* client authenticates as (no cross-client splicing).  A
    GET's client makes one for its new key; the HTTP binding's server
    makes one for PUT/CDP."""
    public_pem = key.public.to_pem()
    pop = key.sign(_csr_message(label, nonce_hex, public_pem, requester))
    return {
        "public_key_pem": public_pem.decode("ascii"),
        "pop": base64.b64encode(pop).decode("ascii"),
    }


def new_csr(
    key: KeyPair, requester: DistinguishedName, *, label: bytes = CSR_POP_LABEL
) -> dict:
    """A GET's CSR object, ``{nonce, public_key_pem, pop}``, over a fresh
    client nonce."""
    nonce_hex = secrets.token_hex(16)
    return {"nonce": nonce_hex, **make_csr(key, nonce_hex, requester, label=label)}


def check_csr(
    csr,
    requester: DistinguishedName,
    *,
    nonce_hex: str | None = None,
    label: bytes = CSR_POP_LABEL,
) -> PublicKey:
    """The public key of a :func:`make_csr` CSR whose proof of possession
    holds for ``requester``, over ``nonce_hex`` or else the CSR's own
    nonce.  A defect raises :class:`ProtocolError` (or, for a key that
    does not parse, :class:`CredentialError`)."""
    if nonce_hex is None:
        nonce_hex = csr_nonce(csr)
    try:
        public_pem = csr["public_key_pem"].encode("ascii")
        pop = base64.b64decode(csr["pop"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError("malformed CSR") from exc
    public_key = PublicKey.from_pem(public_pem)
    if not public_key.verify(pop, _csr_message(label, nonce_hex, public_pem, requester)):
        raise ProtocolError("CSR proof-of-possession failed")
    return public_key


# ---------------------------------------------------------------------------
# the delegator
# ---------------------------------------------------------------------------


def issue(
    stored: Credential,
    public_key: PublicKey,
    bound: IssuanceBound,
    *,
    chain_pem: bytes | None = None,
) -> tuple[Certificate, bytes]:
    """The one proxy-issuing step: sign ``public_key`` as a proxy of
    ``stored`` as its ``bound`` says, and return the certificate with its
    issuer chain (PEM).

    Every delegator calls it — the Offer exchange, a GET's CSR on either
    binding, each GET_MULTI item, the HTTP client signing the server's
    key for PUT or CDP.  ``chain_pem``, when the caller already holds
    ``stored``'s chain as PEM (a repository entry does), is reused
    instead of re-encoded.
    """
    cert = sign_proxy_request(stored, public_key, bound=bound)
    if chain_pem is None:
        chain_pem = b"".join(c.to_pem() for c in stored.full_chain())
    return cert, chain_pem


def issue_message(cert: Certificate, chain_pem: bytes) -> bytes:
    """The Issue message carrying an :func:`issue` result."""
    return pack_fields([_T_ISSUE, cert.to_pem(), chain_pem])


def delegate_credential(
    channel: SecureChannel,
    issuer: Credential,
    *,
    lifetime: float = DEFAULT_PROXY_LIFETIME,
    limited: bool = False,
    restrictions: ProxyRestrictions | None = None,
    clock: Clock = SYSTEM_CLOCK,
    chain_pem: bytes | None = None,
) -> Certificate:
    """Delegate a proxy for ``issuer`` to the peer on ``channel``.

    Returns the proxy certificate that was issued (the caller may log or
    audit it; the private key exists only on the peer).
    """
    nonce = secrets.token_bytes(32)
    channel.send(
        pack_fields(
            [
                _T_OFFER,
                f"{lifetime:.3f}".encode("ascii"),
                b"1" if limited else b"0",
                nonce,
            ]
        )
    )

    fields = unpack_fields(channel.recv())
    if len(fields) != 3 or fields[0] != _T_REQUEST:
        raise ProtocolError("expected a delegation Request message")
    public_pem, pop_signature = fields[1], fields[2]
    public_key = PublicKey.from_pem(public_pem)
    if not public_key.verify(pop_signature, _pop_message(nonce, public_pem)):
        raise ProtocolError("delegation proof-of-possession failed")

    bound = issuance_bound(issuer, lifetime, clock.now(), limited=limited, restrictions=restrictions)
    proxy_cert, chain_pem = issue(issuer, public_key, bound, chain_pem=chain_pem)
    channel.send(issue_message(proxy_cert, chain_pem))
    return proxy_cert


# ---------------------------------------------------------------------------
# the acceptor
# ---------------------------------------------------------------------------


def _parse_offer(fields: list[bytes]) -> tuple[float, bool, bytes]:
    if len(fields) != 4 or fields[0] != _T_OFFER:
        raise ProtocolError("expected a delegation Offer message")
    try:
        offered_lifetime = float(fields[1].decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"malformed delegation Offer lifetime: {exc}") from None
    if not 0 < offered_lifetime < float("inf"):
        raise ProtocolError("delegation Offer lifetime must be positive and finite")
    nonce = fields[3]
    if len(nonce) < 16:
        raise ProtocolError("delegation nonce too short")
    return offered_lifetime, fields[2] == b"1", nonce


def accept_delegation(
    channel: SecureChannel,
    *,
    key_source: KeySource | None = None,
    clock: Clock = SYSTEM_CLOCK,
) -> Credential:
    """Receive a delegated proxy credential from the peer on ``channel``,
    held by :func:`accept_issue` to the Offer: a buggy or malicious
    delegator cannot hand back more authority than it offered, or a chain
    that falls apart on first use."""
    lifetime, limited, nonce = _parse_offer(unpack_fields(channel.recv()))
    key = (key_source or FreshKeySource()).new_key()
    public_pem = key.public.to_pem()
    pop = key.sign(_pop_message(nonce, public_pem))
    channel.send(pack_fields([_T_REQUEST, public_pem, pop]))
    return accept_csr_reply(channel, key, lifetime=lifetime, limited=limited, clock=clock)


def accept_csr_reply(channel: SecureChannel, key: KeyPair, **terms) -> Credential:
    """Receive the proxy for a CSR (or a Request) for ``key``: the
    delegator's Issue, held by :func:`accept_issue` to the ``terms`` (its
    keywords) it granted.  Anything else in its place (an Offer too) is a
    :class:`ProtocolError`."""
    fields = unpack_fields(channel.recv())
    if len(fields) != 3 or fields[0] != _T_ISSUE:
        raise ProtocolError("expected a delegation Issue message")
    return accept_issue(key, fields[1], fields[2], **terms)


def accept_issue(
    key: KeyPair,
    cert_pem: bytes,
    chain_pem: bytes,
    *,
    lifetime: float,
    limited: bool,
    maximum: float | None = None,
    clock: Clock = SYSTEM_CLOCK,
) -> Credential:
    """Check an issued proxy for ``key`` before it becomes a credential.

    The one acceptance step of every binding's GET and of an Offer: the
    certificate must be for ``key``, its issuer chain must link (names
    and signatures), and the issuer's
    :func:`~repro.pki.proxy.issuance_bound` over the grant (``lifetime``
    under the requester's own ``maximum``, ``limited``) must allow it, to
    ± clock skew.  Defects raise :class:`CredentialError`.
    """
    proxy_cert = Certificate.from_pem(cert_pem)
    if not chain_pem.strip():
        raise CredentialError("issued proxy arrived without an issuer chain")
    chain = tuple(Certificate.list_from_pem(chain_pem))
    if proxy_cert.public_key != key.public:
        raise CredentialError("issued proxy does not match the generated key")
    if proxy_cert.issuer != chain[0].subject or not proxy_cert.signed_by(
        chain[0].public_key
    ):
        raise CredentialError("issued proxy chain does not link to its issuer")
    for child, parent in zip(chain, chain[1:]):
        if child.issuer != parent.subject or not child.signed_by(parent.public_key):
            raise CredentialError(f"issuer chain does not link at {child.subject}")
    # As of when it says it was issued, or now if earlier: an honest
    # issuer passes whatever the two clocks read.
    issued_at = min(proxy_cert.not_before + BACKDATE, clock.now())
    issuer = Credential(chain[0], chain=chain[1:])
    try:
        bound = issuance_bound(issuer, lifetime, issued_at, maximum=maximum, limited=limited)
    except PolicyError as exc:
        raise CredentialError(f"issued proxy exceeds what its issuer may grant: {exc}") from None
    if proxy_cert.not_after > bound.not_after + CLOCK_SKEW:
        raise CredentialError(
            "issued proxy outlives the offered lifetime "
            f"({proxy_cert.not_after - bound.now:.0f}s > {bound.lifetime:.0f}s offered)"
        )
    if proxy_cert.subject.last_cn_is_limited != limited:
        raise CredentialError(
            "issued proxy limitation does not match the offer "
            f"(offered limited={limited})"
        )
    return Credential(certificate=proxy_cert, key=key, chain=chain)
