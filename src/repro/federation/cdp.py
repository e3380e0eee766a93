"""The IVOA Credential Delegation Protocol, mounted beside the HTTP binding.

The IVOA CDP (arXiv:1110.0509) standardises the delegation dance the
§6.4 HTTP binding already performs for PUT, as a *resource with a
lifecycle*: the client creates a delegation resource, fetches the
server-generated CSR, signs a proxy certificate with its own credential,
and uploads it; the delegated proxy then lives server-side under the
authenticated DN.  Recast in this repo's JSON-over-HTTPS shape:

- ``POST /cdp/register`` — create a delegation resource; the server
  generates the key pair (its private half never leaves) and answers
  with a ``delegation_id`` plus the resource's expiry.
- ``POST /cdp/proxy-csr`` — fetch the CSR for a pending resource: the
  public key plus proof-of-possession over the caller's nonce, bound to
  the caller's authenticated identity.  Repeatable while pending.
- ``POST /cdp/certificate`` — upload the signed certificate + chain and
  storage metadata.  It is the two-step PUT's completion: the same
  :meth:`~repro.core.httpbinding.MyProxyHttpGateway.complete_delegation`
  over the server's PUT steps, so CDP deposits are policy-checked,
  audited, and repository-shaped exactly like a native PUT.
- ``POST /cdp/delete`` — abort a pending resource (the spec's DELETE).

Resources live in the PUT sessions' store,
:class:`~repro.core.httpbinding.PendingDelegations`: an id is bound to
the identity that registered it (cross-user probes fail generically), a
completed resource refuses re-upload with a distinct *replay* error, and
an expired CSR says so — both are bearer-secret holders who deserve an
actionable answer, not an oracle for guessers.
"""

from __future__ import annotations

import secrets

from repro.core.httpbinding import (
    _POP_LABEL,
    HttpMyProxyClient,
    MyProxyHttpGateway,
    PendingDelegations,
)
from repro.core.protocol import Command, Reply, Request
from repro.pki.credentials import Credential
from repro.pki.keys import KeySource
from repro.pki.proxy import ProxyRestrictions
from repro.pki.validation import ValidatedIdentity
from repro.transport.delegation import csr_nonce, make_csr
from repro.web.http11 import HttpResponse

#: How long a registered delegation resource waits for its certificate.
CSR_TTL = 300.0


class CdpService:
    """Mounts the ``/cdp/*`` endpoint set on an existing HTTP gateway."""

    def __init__(
        self,
        gateway: MyProxyHttpGateway,
        *,
        key_source: KeySource | None = None,
        csr_ttl: float = CSR_TTL,
    ) -> None:
        self.gateway = gateway
        self.server = gateway.server
        self.key_source = key_source or gateway.key_source
        self.csr_ttl = csr_ttl
        self._delegations = PendingDelegations(
            self.server.clock, csr_ttl, "delegation CSR"
        )
        gateway.add_json_route("/cdp/register", self._op_register, audit_command="CDP")
        gateway.add_json_route("/cdp/proxy-csr", self._op_proxy_csr, audit_command="CDP")
        gateway.add_json_route(
            "/cdp/certificate", self._op_certificate, audit_command="CDP"
        )
        gateway.add_json_route("/cdp/delete", self._op_delete, audit_command="CDP")

    def _op_register(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        self.server.require_acl(self.server.policy.accepted_credentials, peer)
        delegation_id, expires = self._delegations.add(
            str(peer.identity), self.key_source.new_key()
        )
        return HttpResponse.json(
            Reply.CDP_REGISTER.body(delegation_id=delegation_id, expires=expires)
        )

    def _op_proxy_csr(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        key = self._delegations.peek(
            str(payload.get("delegation_id", "")), str(peer.identity)
        )
        csr = make_csr(key, csr_nonce(payload), peer.identity, label=_POP_LABEL)
        return HttpResponse.json(Reply.CDP_CSR.body(**csr))

    def _op_certificate(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        delegation_id = str(payload.get("delegation_id", ""))
        key = self._delegations.take(delegation_id, str(peer.identity))
        try:
            commit = self.gateway.complete_delegation(
                peer, payload, key, command="CDP", stat="cdp_delegations"
            )
        except Exception:
            # A failed upload must not consume the resource: the CSR the
            # client signed is still good until its TTL runs out.
            self._delegations.restore(delegation_id, key)
            raise
        return HttpResponse.json(Reply.COMMIT.body(**commit))

    def _op_delete(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        delegation_id = str(payload.get("delegation_id", ""))
        state = self._delegations.discard(delegation_id, str(peer.identity))
        self.server.audit(
            str(peer.identity), "CDP-DELETE", "", "", True,
            f"delegation {delegation_id} aborted ({state})",
        )
        return HttpResponse.json(Reply.CDP_DELETE.body(deleted=True))


class CdpClient(HttpMyProxyClient):
    """Drives the CDP lifecycle against a gateway; adds :meth:`delegate`."""

    def delegate(
        self,
        signer: Credential,
        *,
        restrictions: ProxyRestrictions | None = None,
        limited: bool = False,
        **fields,
    ):
        """register → proxy-csr → sign → certificate, in one call;
        ``fields`` are the stored entry's :class:`~repro.core.protocol.Request`
        keywords, as for a PUT.  Returns the delegation id and the
        :attr:`~repro.core.protocol.Reply.COMMIT` read.

        ``signer`` is the credential that mints the proxy.  The stored
        delegation must carry the *transport* identity (the server binds
        deposits to the authenticated peer), so ``signer`` is normally
        the same credential securing the connection — the federation
        gateway authenticates as the user's session proxy and signs with
        it too.
        """
        request = Request(Command.PUT, **fields)
        delegation_id = Reply.CDP_REGISTER.read(self._call("/cdp/register", {})).delegation_id
        nonce = secrets.token_hex(16)
        csr = Reply.CDP_CSR.read(
            self._call("/cdp/proxy-csr", {"delegation_id": delegation_id, "nonce": nonce})
        )
        commit = self._complete(
            "/cdp/certificate", {"delegation_id": delegation_id}, csr, nonce, signer, request,
            limited=limited, restrictions=restrictions,
        )
        return delegation_id, commit

    def abort(self, delegation_id: str) -> None:
        Reply.CDP_DELETE.read(self._call("/cdp/delete", {"delegation_id": delegation_id}))
