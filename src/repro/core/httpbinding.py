"""An HTTP binding of the MyProxy protocol (§6.4).

"The current MyProxy client-server protocol was quickly designed as a
prototype.  We plan to investigate using more standard protocols.  One
option would be HTTP for compatibility with standard web-oriented
libraries."

This module implements that option: :class:`MyProxyHttpGateway` exposes a
repository's operations as JSON-over-HTTPS endpoints, and
:class:`HttpMyProxyClient` is the matching client.  The gateway is a
*codec*: every command's transport-neutral steps — admission, the refusal
decision, GET (authorize, check the CSR, issue, record), PUT's checks and
storage, INFO, DESTROY, CHANGE_PASSPHRASE — are the same public
:class:`~repro.core.server.MyProxyServer` methods the GSI dispatcher
calls.  The gateway keeps only decoding, the PUT key exchange, and
encoding, each reply through :data:`~repro.core.protocol.REPLY_FIELDS`.

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

import json
import secrets
import threading
import time
from dataclasses import dataclass

from repro.core.client import ClientCore
from repro.core.protocol import (
    HTTP, Command, Reply, Request, Response, StoredCredentialInfo, parse_json, refused,
)
from repro.core.server import REFUSABLE, MyProxyServer, Refusal
from repro.pki.certs import Certificate
from repro.pki.credentials import Credential
from repro.pki.keys import FreshKeySource, KeyPair, KeySource
from repro.pki.proxy import issuance_bound
from repro.pki.validation import ValidatedIdentity
from repro.transport.channel import SecureChannel
from repro.transport.delegation import (
    accept_issue,
    check_csr,
    csr_nonce,
    issue,
    make_csr,
)
from repro.transport.links import Link
from repro.transport.listener import Binding
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import AuthenticationError, ProtocolError, busy_hint
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


def _render(refusal: Refusal) -> HttpResponse:
    busy = refusal.kind == "busy"
    return HttpResponse.json(
        refused(refusal.message, refusal.retry_after if busy else None),
        _REFUSAL_STATUS[refusal.kind],
    )


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
        for path, command, step, reply in (
            ("/myproxy/info", Command.INFO, server.info, Reply.LISTING),
            ("/myproxy/destroy", Command.DESTROY, server.destroy, Reply.DESTROYED),
            ("/myproxy/change-passphrase", Command.CHANGE_PASSPHRASE,
             server.change_passphrase, Reply.CHANGED),
        ):
            self.add_json_route(path, self._answered(command, step, reply))

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def connect(self) -> Link:
        """Dial this gateway in process, through the server's listener."""
        return self.server.connect(self)

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
                    payload = {}
                    try:
                        payload = parse_json(ctx.request.body, "request body", dict)
                        response = op(peer, payload)
                        outcome = "ok"
                        return response
                    except REFUSABLE as exc:
                        named = Request.named(payload)[1:]  # the user and credential
                        refusal = server.refuse(exc, str(peer.identity), audit_command, *named)
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
        request = Request.from_json(payload, Command.GET)
        issued, chain_pem, grant = self.server.get(peer, request, label=_POP_LABEL)
        return HttpResponse.json(Reply.GRANT.body(
            **grant, certificate_pem=issued.to_pem().decode("ascii"),
            chain_pem=chain_pem.decode("ascii"),
        ))

    # ------------------------------------------------------------------
    # PUT: two-step (server-side keygen, client-side signing)
    # ------------------------------------------------------------------

    def _op_put_begin(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        self.server.require_acl(self.server.policy.accepted_credentials, peer)
        nonce_hex = csr_nonce(payload)
        key = self.key_source.new_key()
        token, _expires = self._put_sessions.add(str(peer.identity), key)
        csr = make_csr(key, nonce_hex, peer.identity, label=_POP_LABEL)
        return HttpResponse.json(Reply.PUT_BEGIN.body(token=token, **csr))

    def _op_put_complete(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        key = self._put_sessions.take(str(payload.get("token", "")), str(peer.identity))
        return HttpResponse.json(Reply.COMMIT.body(**self.complete_delegation(peer, payload, key)))

    def complete_delegation(
        self,
        peer: ValidatedIdentity,
        payload: dict,
        key: KeyPair,
        *,
        command: str = "PUT",
        stat: str = "puts",
    ) -> dict:
        """Store the client-signed proxy certificate for a server-held key;
        the :attr:`~repro.core.protocol.Reply.COMMIT` that says so.

        The HTTP side of the PUT key exchange, shared by
        ``/myproxy/put/complete`` and the IVOA CDP ``certificate`` step in
        :mod:`repro.federation.cdp`: parse the certificate and match it to
        the session key.  The server's
        :meth:`~repro.core.server.MyProxyServer.check_put` and
        :meth:`~repro.core.server.MyProxyServer.store_delegation` do the
        rest, exactly as for a GSI PUT.
        """
        request = Request.from_json(payload, Command.PUT)
        secret = self.server.check_put(peer, request)
        issued = Reply.ISSUE.read(payload)
        cert = Certificate.from_pem(issued.certificate_pem.encode())
        chain = tuple(Certificate.list_from_pem(issued.chain_pem.encode()))
        if cert.public_key != key.public:
            raise ProtocolError("certificate does not match the session key")
        delegated = Credential(certificate=cert, key=key, chain=chain)
        return self.server.store_delegation(
            peer, request, secret, delegated, command=command, stat=stat
        )

    # ------------------------------------------------------------------
    # INFO / DESTROY / CHANGE
    # ------------------------------------------------------------------

    @staticmethod
    def _answered(command: Command, step, reply: Reply):
        """The op of a command with no transfer step: the server's
        ``step``, its values answered as ``reply``."""
        return lambda peer, payload: HttpResponse.json(
            reply.body(**step(peer, Request.from_json(payload, command)))
        )


class HttpMyProxyClient(ClientCore):
    """Speaks the §6.4 HTTP binding to a gateway.

    The JSON codec on the client core: each request rides a channel the
    core's loop checked out, so the client keeps its HTTPS channel, files
    session tickets and honours busy exactly as the GSI client does.
    """

    def __init__(
        self,
        target,
        credential: Credential,
        validator,
        *,
        key_source: KeySource | None = None,
        clock=None,
    ) -> None:
        super().__init__(
            target, credential, validator, key_source=key_source,
            clock=clock or SYSTEM_CLOCK,
        )

    def _call(self, path: str, payload: dict) -> dict:
        """POST one JSON request; the gateway's answer, for the caller to
        read as its :class:`~repro.core.protocol.Reply`, or its refusal
        raised as the GSI client raises one."""
        body = json.dumps(payload).encode("utf-8")
        message = HttpRequest(
            method="POST",
            target=path,
            headers=[("Content-Type", "application/json"),
                     ("Content-Length", str(len(body)))],
            body=body,
        ).serialize()

        def conversation(channel: SecureChannel):
            channel.send(message)
            http = HttpResponse.parse(channel.recv())
            answer = parse_json(http.body, "gateway reply", dict)
            status = Reply.STATUS.read(answer)
            if not status.ok:
                busy = http.status == 503 and status.error == "busy"
                hint = busy_hint(status.retry_after) if busy else None
                raise self._refusal(
                    Response(False, str(status.error), retry_after=hint),
                    f"gateway refused ({http.status})",
                )
            return answer

        return self._converse(conversation)

    def _complete(
        self, path: str, ticket: dict, csr, nonce: str, signer: Credential,
        request: Request, **proxy,
    ):
        """Check the server's proof of possession over ``nonce`` in ``csr``
        (a read :attr:`~repro.core.protocol.Reply.PUT_BEGIN` or ``CDP_CSR``),
        sign its key as a proxy of ``signer``, and send that
        :attr:`~repro.core.protocol.Reply.ISSUE` with ``ticket`` and the
        stored entry's ``request`` fields to ``path``: the ``COMMIT`` read.
        The end of a PUT or a CDP delegation."""
        public_key = check_csr(
            csr._asdict(), self.credential.identity, nonce_hex=nonce, label=_POP_LABEL
        )
        bound = issuance_bound(signer, request.lifetime, self.clock.now(), **proxy)
        cert, chain_pem = issue(signer, public_key, bound)
        issued = Reply.ISSUE.write(
            HTTP, certificate_pem=cert.to_pem().decode("ascii"), chain_pem=chain_pem.decode("ascii")
        )
        return Reply.COMMIT.read(self._call(path, {**ticket, **request.to_json(), **issued}))

    # -- operations: keywords are :class:`~repro.core.protocol.Request`'s ------

    def get_delegation(self, **fields) -> Credential:
        """GET via CSR: the private key is generated here and never sent.

        The answer is held to the GSI client's checks
        (:func:`~repro.transport.delegation.accept_issue`) against the
        lifetime the gateway says it granted, capped by ``lifetime`` when
        one was asked for.
        """
        key, csr = self._keyed_csr(_POP_LABEL)
        request = Request(Command.GET, csr=csr, **fields)
        grant = Reply.GRANT.read(self._call("/myproxy/get", request.to_json()))
        return accept_issue(
            key, grant.certificate_pem.encode(), grant.chain_pem.encode(),
            **self._granted(grant, request.lifetime),
        )

    def put(self, source_credential: Credential, **fields):
        """Two-step PUT: fetch the server's CSR, sign it, complete; the
        :attr:`~repro.core.protocol.Reply.COMMIT` read."""
        request = Request(Command.PUT, **fields)
        nonce = secrets.token_hex(16)
        begin = Reply.PUT_BEGIN.read(self._call("/myproxy/put/begin", {"nonce": nonce}))
        return self._complete(
            "/myproxy/put/complete", {"token": begin.token}, begin, nonce, source_credential,
            request,
        )

    def info(self, **fields) -> list[StoredCredentialInfo]:
        request = Request(Command.INFO, **fields)
        return list(Reply.LISTING.read(self._call("/myproxy/info", request.to_json())).credentials)

    def destroy(self, **fields) -> None:
        Reply.DESTROYED.read(
            self._call("/myproxy/destroy", Request(Command.DESTROY, **fields).to_json())
        )

    def change_passphrase(
        self, *, old_passphrase: str, new_passphrase: str, **fields
    ) -> None:
        request = Request(
            Command.CHANGE_PASSPHRASE, passphrase=old_passphrase,
            new_passphrase=new_passphrase, **fields,
        )
        Reply.CHANGED.read(self._call("/myproxy/change-passphrase", request.to_json()))
