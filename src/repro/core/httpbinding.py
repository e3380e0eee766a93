"""An HTTP binding of the MyProxy protocol (§6.4).

"The current MyProxy client-server protocol was quickly designed as a
prototype.  We plan to investigate using more standard protocols.  One
option would be HTTP for compatibility with standard web-oriented
libraries."

This module implements that option: :class:`MyProxyHttpGateway` exposes a
repository's operations as JSON-over-HTTPS endpoints, and
:class:`HttpMyProxyClient` is the matching client.  The gateway is a
*codec*: every command's transport-neutral steps — admission, the refusal
decision, GET's authorize-and-load, PUT's checks and storage, INFO,
DESTROY, CHANGE_PASSPHRASE — are the same public
:class:`~repro.core.server.MyProxyServer` methods the GSI dispatcher
calls.  The gateway keeps only decoding, its own key-exchange step, and
encoding.

Transport security is the same GSI channel (the gateway **requires client
certificates** — no anonymous access), so the §5.1 properties carry over
unchanged, and so does the connection lifecycle: the gateway is a binding
of :meth:`~repro.core.server.MyProxyServer.listen`.  The delegation
sub-protocols are recast in request/response shape, the way later HTTP
credential services (e.g. CILogon) did:

- ``POST /myproxy/get`` — the client generates a key pair locally and
  sends a *certificate signing request* (public key + proof-of-possession
  over a client nonce bound to its authenticated identity); the server
  authenticates the request exactly like a channel GET and returns the
  signed proxy certificate plus chain.  The private key never leaves the
  client.
- ``POST /myproxy/put/begin`` + ``POST /myproxy/put/complete`` — PUT needs
  the *server* to hold the new key, so ``begin`` has the server generate a
  key pair and return a CSR (public key + PoP over the client's nonce)
  with a single-use session token; the client signs the proxy certificate
  with its own credential and ``complete``s with certificate + metadata.
  The server's new private key never leaves the server.
- ``POST /myproxy/info``, ``/destroy``, ``/change-passphrase`` — plain
  JSON request/response.
"""

from __future__ import annotations

import base64
import json
import math
import secrets
import threading
import time
from dataclasses import dataclass

from repro.core.protocol import DEFAULT_CRED_NAME, AuthMethod, Request, Command
from repro.core.repository import RepositoryEntry
from repro.core.server import REFUSABLE, MyProxyServer, Refusal
from repro.pki.certs import Certificate
from repro.pki.credentials import Credential
from repro.pki.keys import FreshKeySource, KeyPair, KeySource, PublicKey
from repro.pki.proxy import sign_proxy_request
from repro.pki.validation import ValidatedIdentity
from repro.transport.channel import SecureChannel
from repro.transport.delegation import accept_issue
from repro.transport.listener import Binding, serve_link
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import (
    AuthenticationError,
    ProtocolError,
    ServerBusyError,
)
from repro.web.client import SecureTransport
from repro.web.http11 import HttpRequest, HttpResponse
from repro.web.server import WebContext, WebServer

_POP_LABEL = b"myproxy-http-binding-pop-v1"
PUT_SESSION_TTL = 120.0
#: How long a consumed/expired PUT token's tombstone is kept, so a replay
#: or late completion gets a *distinct* refusal instead of the generic
#: "unknown session" denial.  Past this, replays fold into "unknown".
PUT_TOMBSTONE_TTL = 10 * PUT_SESSION_TTL

#: HTTP status for each :class:`~repro.core.server.Refusal` kind.
_REFUSAL_STATUS = {"denied": 403, "rejected": 400, "busy": 503, "storage": 503}


def _pop_message(nonce_hex: str, public_pem: bytes, identity: str) -> bytes:
    return _POP_LABEL + bytes.fromhex(nonce_hex) + public_pem + identity.encode()


def _json_body(request: HttpRequest) -> dict:
    try:
        payload = json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("request body is not valid JSON") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    return payload


def _nonce(payload: dict) -> str:
    nonce_hex = str(payload.get("nonce", ""))
    if len(nonce_hex) < 32:
        raise ProtocolError("CSR nonce too short")
    return nonce_hex


def _csr(key: KeyPair, nonce_hex: str, client) -> dict:
    """A CSR for ``key``: its public half plus proof of possession over
    ``nonce_hex``, bound to the *client's* identity (no cross-client
    splicing).  The client makes one for GET, the server for PUT/CDP."""
    public_pem = key.public.to_pem()
    pop = key.sign(_pop_message(nonce_hex, public_pem, str(client)))
    return {
        "public_key_pem": public_pem.decode("ascii"),
        "pop": base64.b64encode(pop).decode("ascii"),
    }


def _check_csr(csr, nonce_hex: str, client) -> PublicKey:
    """The public key of a :func:`_csr` whose proof of possession holds."""
    try:
        public_pem = csr["public_key_pem"].encode("ascii")
        pop = base64.b64decode(csr["pop"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError("malformed CSR") from exc
    public_key = PublicKey.from_pem(public_pem)
    if not public_key.verify(pop, _pop_message(nonce_hex, public_pem, str(client))):
        raise ProtocolError("CSR proof-of-possession failed")
    return public_key


def _request_from(payload: dict, command: Command) -> Request:
    def optional(key: str, convert):
        value = payload.get(key)
        return None if value is None else convert(value)

    try:
        return Request(
            command=command,
            username=str(payload.get("username", "")),
            passphrase=str(payload.get("passphrase", "")),
            lifetime=float(payload.get("lifetime", 0.0)),
            cred_name=str(payload.get("cred_name", DEFAULT_CRED_NAME)),
            auth_method=AuthMethod(payload.get("auth_method", "passphrase")),
            max_get_lifetime=optional("max_get_lifetime", float),
            retrievers=optional("retrievers", tuple),
            renewers=optional("renewers", tuple),
            new_passphrase=str(payload.get("new_passphrase", "")),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad request fields: {exc}") from exc


def _render(refusal: Refusal) -> HttpResponse:
    body = {"ok": False, "error": refusal.message}
    if refusal.kind == "busy":
        body["retry_after"] = refusal.retry_after
    return HttpResponse.json(body, _REFUSAL_STATUS[refusal.kind])


@dataclass(slots=True)
class _Pending:
    owner: str
    key: KeyPair | None
    expires: float
    fate: str | None = None  # None while live, then "used" or "expired"
    until: float = 0.0  # when the tombstone is forgotten


class PendingDelegations:
    """Server-held keys waiting for a client-signed certificate.

    The two-step PUT's session tokens and IVOA CDP's delegation ids are
    both kept here.  An id is bound to the identity that opened it and
    lives ``ttl`` seconds.  Taking it, or letting it lapse, leaves a
    tombstone for :data:`PUT_TOMBSTONE_TTL`: the *owner* presenting it
    again gets a :class:`ProtocolError` naming the fate ("already used
    (replay refused)" or "expired"), because the id is a bearer secret
    they legitimately held and the reason is actionable.  Ids never
    issued, owned by someone else, or past their tombstone stay on the
    generic denial path: nothing is revealed to a guesser.
    """

    def __init__(self, clock: Clock, ttl: float, noun: str) -> None:
        self.clock = clock
        self.ttl = ttl
        self.noun = noun
        self._items: dict[str, _Pending] = {}
        self._lock = threading.Lock()

    def add(self, owner: str, key: KeyPair) -> tuple[str, float]:
        """Open a fresh id for ``key``; returns it and its expiry."""
        token = secrets.token_urlsafe(24)
        with self._lock:
            now = self.clock.now()
            self._reap(now)
            self._items[token] = _Pending(owner, key, now + self.ttl)
        return token, now + self.ttl

    def peek(self, token: str, owner: str) -> KeyPair:
        """The live key behind ``token``, left in place."""
        with self._lock:
            return self._live(token, owner).key

    def take(self, token: str, owner: str) -> KeyPair:
        """Consume ``token`` exactly once."""
        with self._lock:
            item = self._live(token, owner)
            key = item.key
            self._bury(item, "used", self.clock.now())
        return key

    def restore(self, token: str, key: KeyPair) -> None:
        """Undo a :meth:`take` whose upload was refused: the CSR the
        client signed stays good until its original expiry."""
        with self._lock:
            item = self._items.get(token)
            if item is not None and item.fate == "used" and item.expires > self.clock.now():
                item.fate, item.key = None, key

    def discard(self, token: str, owner: str) -> str:
        """Forget ``token`` whatever its state; returns that state."""
        with self._lock:
            item = self._owned(token, owner)
            del self._items[token]
        return item.fate or "pending"

    def _owned(self, token: str, owner: str) -> _Pending:
        self._reap(self.clock.now())
        item = self._items.get(token)
        if item is None or item.owner != owner:
            raise AuthenticationError(f"unknown {self.noun}")
        return item

    def _live(self, token: str, owner: str) -> _Pending:
        item = self._owned(token, owner)
        if item.fate == "used":
            raise ProtocolError(f"{self.noun} already used (replay refused)")
        if item.fate == "expired":
            raise ProtocolError(f"{self.noun} expired")
        return item

    def _reap(self, now: float) -> None:
        for token, item in list(self._items.items()):
            if item.fate is None and item.expires <= now:
                self._bury(item, "expired", now)
            elif item.fate is not None and item.until <= now:
                del self._items[token]

    @staticmethod
    def _bury(item: _Pending, fate: str, now: float) -> None:
        item.fate, item.key, item.until = fate, None, now + PUT_TOMBSTONE_TTL


class MyProxyHttpGateway(Binding):
    """HTTP front end for a :class:`MyProxyServer`'s repository."""

    def __init__(
        self,
        server: MyProxyServer,
        *,
        key_source: KeySource | None = None,
    ) -> None:
        self.server = server
        self.key_source = key_source or server.key_source or FreshKeySource()
        self.web = WebServer("myproxy-http", clock=server.clock)
        self._put_sessions = PendingDelegations(
            server.clock, PUT_SESSION_TTL, "PUT session"
        )
        # Per-endpoint observability: every mounted route (the /myproxy/*
        # set here, /cdp/* when the federation subsystem mounts beside it)
        # reports through the same two families.
        self._requests_total = server.metrics.counter(
            "myproxy_http_requests_total",
            "HTTP-binding requests by endpoint and outcome.",
            labelnames=("endpoint", "outcome"),
        )
        self._request_seconds = server.metrics.histogram(
            "myproxy_http_request_seconds",
            "HTTP-binding request latency by endpoint.",
            labelnames=("endpoint",),
        )
        self.add_json_route("/myproxy/get", self._op_get)
        self.add_json_route("/myproxy/put/begin", self._op_put_begin)
        self.add_json_route("/myproxy/put/complete", self._op_put_complete)
        self.add_json_route("/myproxy/info", self._op_info)
        self.add_json_route("/myproxy/destroy", self._op_destroy)
        self.add_json_route("/myproxy/change-passphrase", self._op_change)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def handle_secure_link(self, link) -> None:
        """Serve one HTTPS connection until it ends."""
        serve_link(link, self)

    def serve(self, host: str, port: int) -> tuple[str, int]:
        """Listen for HTTPS connections on ``host:port`` beside the
        server's own; returns the bound address."""
        return self.server.listen(host, port, self)

    def answer(self, channel: SecureChannel, message: bytes) -> bool:
        """Answer one HTTP request; the connection is kept after any
        reply.  No browser session is minted: a request is authorized by
        its channel's client certificate alone."""
        channel.send(self.web.answer(message, peer=channel.peer, sessions=False))
        return True

    def open(self, link) -> SecureChannel | None:
        """The server's handshake; client certificates are required."""
        return self.server.open(link, allow_anonymous=False)

    def resume(self, channel: SecureChannel) -> bool:
        return self.server.resume(channel)

    def failed(self, channel: SecureChannel, exc) -> None:
        self.server.failed(channel, exc)

    def busy_reply(self, retry_after: float) -> bytes:
        return _render(Refusal("busy", "busy", retry_after)).serialize()

    def add_json_route(self, path: str, op, *, audit_command: str = "HTTP") -> None:
        """Mount an authenticated JSON op at ``POST path``.

        The federation subsystem mounts its ``/cdp/*`` endpoints through
        this, so every route shares one admission and refusal discipline
        — the server's, rendered as HTTP: denials are generic 403s,
        client mistakes are 400s with a precise message, busy and storage
        trouble are 503s — and each request lands in the per-endpoint
        counter/histogram pair.
        """
        self.web.add_route(
            "POST", path, self._route(op, path, audit_command=audit_command)
        )

    def _route(self, op, path: str, *, audit_command: str = "HTTP"):
        server = self.server

        def _handler(ctx: WebContext) -> HttpResponse:
            started = time.perf_counter()
            outcome = "error"
            try:
                peer = ctx.peer
                # Per request, not per connection: one kept-alive
                # connection may carry any number of requests.
                retry = server.admit(peer)
                if retry > 0:
                    refusal = Refusal("busy", "busy", retry)
                else:
                    try:
                        response = op(peer, _json_body(ctx.request))
                        outcome = "ok"
                        return response
                    except REFUSABLE as exc:
                        refusal = server.refuse(exc, str(peer.identity), audit_command)
                outcome = refusal.kind
                return _render(refusal)
            finally:
                self._requests_total.labels(endpoint=path, outcome=outcome).inc()
                self._request_seconds.labels(endpoint=path).observe(
                    time.perf_counter() - started
                )

        return _handler

    # ------------------------------------------------------------------
    # GET: CSR in, certificate out
    # ------------------------------------------------------------------

    def _op_get(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        request = _request_from(payload, Command.GET)
        stored, lifetime = self.server.authorize_get(peer, request)

        csr = payload.get("csr")
        if not isinstance(csr, dict):
            raise ProtocolError("malformed CSR")
        public_key = _check_csr(csr, _nonce(csr), peer.identity)
        issued = sign_proxy_request(
            stored, public_key, lifetime=lifetime, clock=self.server.clock
        )
        self.server.record_get(peer, request, issued.not_after)
        chain_pem = b"".join(c.to_pem() for c in stored.full_chain())
        return HttpResponse.json(
            {
                "ok": True,
                "certificate_pem": issued.to_pem().decode("ascii"),
                "chain_pem": chain_pem.decode("ascii"),
                "granted_lifetime": lifetime,
            }
        )

    # ------------------------------------------------------------------
    # PUT: two-step (server-side keygen, client-side signing)
    # ------------------------------------------------------------------

    def _op_put_begin(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        self.server.require_acl(self.server.policy.accepted_credentials, peer)
        nonce_hex = _nonce(payload)
        key = self.key_source.new_key()
        token, _expires = self._put_sessions.add(str(peer.identity), key)
        return HttpResponse.json(
            {"ok": True, "token": token, **_csr(key, nonce_hex, peer.identity)}
        )

    def _op_put_complete(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        key = self._put_sessions.take(str(payload.get("token", "")), str(peer.identity))
        entry = self.complete_delegation(peer, payload, key)
        return HttpResponse.json(
            {"ok": True, "stored": True, "not_after": entry.not_after}
        )

    def complete_delegation(
        self,
        peer: ValidatedIdentity,
        payload: dict,
        key: KeyPair,
        *,
        command: str = "PUT",
        stat: str = "puts",
    ) -> RepositoryEntry:
        """Store the client-signed proxy certificate for a server-held key.

        The HTTP side of the PUT key exchange, shared by
        ``/myproxy/put/complete`` and the IVOA CDP ``certificate`` step in
        :mod:`repro.federation.cdp`: parse the certificate and match it to
        the session key.  The server's
        :meth:`~repro.core.server.MyProxyServer.check_put` and
        :meth:`~repro.core.server.MyProxyServer.store_delegation` do the
        rest, exactly as for a GSI PUT.
        """
        request = _request_from(payload, Command.PUT)
        secret = self.server.check_put(peer, request)
        try:
            cert = Certificate.from_pem(payload["certificate_pem"].encode("ascii"))
            chain = tuple(
                Certificate.list_from_pem(payload["chain_pem"].encode("ascii"))
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ProtocolError("missing certificate material") from exc
        if cert.public_key != key.public:
            raise ProtocolError("certificate does not match the session key")
        delegated = Credential(certificate=cert, key=key, chain=chain)
        return self.server.store_delegation(
            peer, request, secret, delegated, command=command, stat=stat
        )

    # ------------------------------------------------------------------
    # INFO / DESTROY / CHANGE
    # ------------------------------------------------------------------

    def _op_info(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        request = _request_from(payload, Command.INFO)
        rows = self.server.info(peer, request.username)
        return HttpResponse.json({"ok": True, "credentials": rows})

    def _op_destroy(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        self.server.destroy(peer, _request_from(payload, Command.DESTROY))
        return HttpResponse.json({"ok": True, "destroyed": True})

    def _op_change(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        request = _request_from(payload, Command.CHANGE_PASSPHRASE)
        self.server.change_passphrase(peer, request)
        return HttpResponse.json({"ok": True, "changed": True})


class HttpMyProxyClient:
    """Speaks the §6.4 HTTP binding to a gateway."""

    def __init__(
        self,
        target,
        credential: Credential,
        validator,
        *,
        key_source: KeySource | None = None,
        clock=None,
    ) -> None:
        self._target = target
        self.credential = credential
        self.validator = validator
        self.key_source = key_source or FreshKeySource()
        self.clock = clock or SYSTEM_CLOCK

    def _call(self, path: str, payload: dict) -> dict:
        target = self._target() if callable(self._target) else self._target
        transport = SecureTransport(target, self.validator, self.credential)
        try:
            body = json.dumps(payload).encode("utf-8")
            request = HttpRequest(
                method="POST",
                target=path,
                headers=[("Content-Type", "application/json"),
                         ("Content-Length", str(len(body)))],
                body=body,
            )
            response = HttpResponse.parse(transport.roundtrip(request.serialize()))
        finally:
            transport.close()
        try:
            answer = json.loads(response.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError("gateway returned non-JSON") from exc
        if not answer.get("ok", False):
            if response.status == 503 and answer.get("error") == "busy":
                raise ServerBusyError(
                    "gateway busy", float(answer.get("retry_after", 0.0))
                )
            raise AuthenticationError(
                f"gateway refused ({response.status}): {answer.get('error')}"
            )
        return answer

    def _sign_server_csr(
        self, csr: dict, nonce: str, signer: Credential, lifetime: float, **proxy
    ) -> dict:
        """Check the server's proof of possession over ``nonce``, then sign
        its key as a proxy of ``signer``: the certificate fields of the
        request that completes a PUT or a CDP delegation."""
        public_key = _check_csr(csr, nonce, self.credential.identity)
        cert = sign_proxy_request(
            signer, public_key, lifetime=lifetime, clock=self.clock, **proxy
        )
        chain_pem = b"".join(c.to_pem() for c in signer.full_chain())
        return {
            "certificate_pem": cert.to_pem().decode("ascii"),
            "chain_pem": chain_pem.decode("ascii"),
        }

    # -- operations ------------------------------------------------------------

    def get_delegation(
        self,
        *,
        username: str,
        passphrase: str = "",
        lifetime: float = 0.0,
        cred_name: str = DEFAULT_CRED_NAME,
        auth_method: AuthMethod = AuthMethod.PASSPHRASE,
    ) -> Credential:
        """GET via CSR: the private key is generated here and never sent.

        The answer is held to the GSI client's checks
        (:func:`~repro.transport.delegation.accept_issue`) against the
        lifetime the gateway says it granted, capped by ``lifetime`` when
        one was asked for.
        """
        key = self.key_source.new_key()
        nonce = secrets.token_hex(16)
        answer = self._call(
            "/myproxy/get",
            {
                "username": username,
                "passphrase": passphrase,
                "lifetime": lifetime,
                "cred_name": cred_name,
                "auth_method": auth_method.value,
                "csr": {
                    "nonce": nonce, **_csr(key, nonce, self.credential.identity)
                },
            },
        )
        try:
            cert_pem = answer["certificate_pem"].encode("ascii")
            chain_pem = answer["chain_pem"].encode("ascii")
            granted = float(answer["granted_lifetime"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ProtocolError("malformed GET answer") from exc
        if not math.isfinite(granted) or granted <= 0:
            raise ProtocolError("GET answer's granted lifetime must be positive")
        if lifetime > 0:
            granted = min(granted, lifetime)
        return accept_issue(
            key, cert_pem, chain_pem, lifetime=granted, limited=False, clock=self.clock
        )

    def put(
        self,
        source_credential: Credential,
        *,
        username: str,
        passphrase: str,
        lifetime: float,
        cred_name: str = DEFAULT_CRED_NAME,
        max_get_lifetime: float | None = None,
        retrievers: tuple[str, ...] | None = None,
        renewers: tuple[str, ...] | None = None,
    ) -> dict:
        """Two-step PUT: fetch the server's CSR, sign it, complete."""
        nonce = secrets.token_hex(16)
        begin = self._call("/myproxy/put/begin", {"nonce": nonce})
        return self._call(
            "/myproxy/put/complete",
            {
                "token": begin["token"],
                "username": username,
                "passphrase": passphrase,
                "lifetime": lifetime,
                "cred_name": cred_name,
                "max_get_lifetime": max_get_lifetime,
                "retrievers": list(retrievers) if retrievers is not None else None,
                "renewers": list(renewers) if renewers is not None else None,
                **self._sign_server_csr(begin, nonce, source_credential, lifetime),
            },
        )

    def info(self, *, username: str) -> list[dict]:
        return list(self._call("/myproxy/info", {"username": username})["credentials"])

    def destroy(self, *, username: str, cred_name: str = DEFAULT_CRED_NAME) -> None:
        self._call("/myproxy/destroy", {"username": username, "cred_name": cred_name})

    def change_passphrase(
        self,
        *,
        username: str,
        old_passphrase: str,
        new_passphrase: str,
        cred_name: str = DEFAULT_CRED_NAME,
    ) -> None:
        self._call(
            "/myproxy/change-passphrase",
            {
                "username": username,
                "passphrase": old_passphrase,
                "new_passphrase": new_passphrase,
                "cred_name": cred_name,
            },
        )
