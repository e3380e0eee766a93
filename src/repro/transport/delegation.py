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

Delegation *chains* (§2.4: "delegation can be chained") fall out naturally:
an accepted delegated credential is itself a valid issuer for the next hop,
subject to the limited-proxy and restriction rules of :mod:`repro.pki.proxy`.
"""

from __future__ import annotations

import secrets

from repro.pki.certs import CLOCK_SKEW, Certificate
from repro.pki.credentials import Credential
from repro.pki.keys import FreshKeySource, KeyPair, KeySource, PublicKey
from repro.pki.proxy import DEFAULT_PROXY_LIFETIME, ProxyRestrictions, sign_proxy_request
from repro.transport.channel import SecureChannel
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.encoding import pack_fields, unpack_fields
from repro.util.errors import CredentialError, ProtocolError

_T_OFFER = b"DG1"
_T_REQUEST = b"DG2"
_T_ISSUE = b"DG3"
_POP_LABEL = b"gsi-delegation-proof-of-possession-v1"


def _pop_message(nonce: bytes, public_pem: bytes) -> bytes:
    return _POP_LABEL + nonce + public_pem


def delegate_credential(
    channel: SecureChannel,
    issuer: Credential,
    *,
    lifetime: float = DEFAULT_PROXY_LIFETIME,
    limited: bool = False,
    restrictions: ProxyRestrictions | None = None,
    clock: Clock = SYSTEM_CLOCK,
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

    proxy_cert = sign_proxy_request(
        issuer,
        public_key,
        lifetime=lifetime,
        limited=limited,
        restrictions=restrictions,
        clock=clock,
    )
    chain_pem = b"".join(c.to_pem() for c in issuer.full_chain())
    channel.send(pack_fields([_T_ISSUE, proxy_cert.to_pem(), chain_pem]))
    return proxy_cert


def accept_delegation(
    channel: SecureChannel,
    *,
    key_source: KeySource | None = None,
    clock: Clock = SYSTEM_CLOCK,
) -> Credential:
    """Receive a delegated proxy credential from the peer on ``channel``.

    The issued proxy is verified **against the Offer** by
    :func:`accept_issue` before a :class:`Credential` is constructed: its
    lifetime must fit the offered one (± clock skew), its limited flag
    must match, and the returned issuer chain must actually link — a
    buggy or malicious delegator cannot hand back more authority than it
    offered, or a chain that falls apart on first use.
    """
    fields = unpack_fields(channel.recv())
    if len(fields) != 4 or fields[0] != _T_OFFER:
        raise ProtocolError("expected a delegation Offer message")
    try:
        offered_lifetime = float(fields[1].decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"malformed delegation Offer lifetime: {exc}") from None
    if offered_lifetime <= 0:
        raise ProtocolError("delegation Offer lifetime must be positive")
    offered_limited = fields[2] == b"1"
    nonce = fields[3]
    if len(nonce) < 16:
        raise ProtocolError("delegation nonce too short")

    key = (key_source or FreshKeySource()).new_key()
    public_pem = key.public.to_pem()
    pop = key.sign(_pop_message(nonce, public_pem))
    channel.send(pack_fields([_T_REQUEST, public_pem, pop]))

    fields = unpack_fields(channel.recv())
    if len(fields) != 3 or fields[0] != _T_ISSUE:
        raise ProtocolError("expected a delegation Issue message")
    return accept_issue(
        key,
        fields[1],
        fields[2],
        lifetime=offered_lifetime,
        limited=offered_limited,
        clock=clock,
    )


def accept_issue(
    key: KeyPair,
    cert_pem: bytes,
    chain_pem: bytes,
    *,
    lifetime: float,
    limited: bool,
    clock: Clock = SYSTEM_CLOCK,
) -> Credential:
    """Check an issued proxy for ``key`` before it becomes a credential.

    The one acceptance step of every binding's GET: the certificate must
    be for ``key``, its issuer chain must link (names and signatures), it
    must not outlive ``lifetime`` from now (± clock skew), and its
    limited flag must be ``limited``.  Defects raise
    :class:`CredentialError`.
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
            raise CredentialError(
                f"issuer chain does not link at {child.subject}"
            )
    now = clock.now()
    if proxy_cert.not_after > now + lifetime + CLOCK_SKEW:
        raise CredentialError(
            "issued proxy outlives the offered lifetime "
            f"({proxy_cert.not_after - now:.0f}s > {lifetime:.0f}s offered)"
        )
    if proxy_cert.subject.last_cn_is_limited != limited:
        raise CredentialError(
            "issued proxy limitation does not match the offer "
            f"(offered limited={limited})"
        )
    return Credential(certificate=proxy_cert, key=key, chain=chain)
