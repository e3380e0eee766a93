"""An HTTP binding of the MyProxy protocol (§6.4).

"The current MyProxy client-server protocol was quickly designed as a
prototype.  We plan to investigate using more standard protocols.  One
option would be HTTP for compatibility with standard web-oriented
libraries."

This module implements that option: :class:`MyProxyHttpGateway` exposes a
repository's operations as JSON-over-HTTPS endpoints, reusing the existing
:class:`~repro.core.server.MyProxyServer` policy/authorization/storage
machinery, and :class:`HttpMyProxyClient` is the matching client.

Transport security is the same GSI channel (the gateway **requires client
certificates** — no anonymous access), so the §5.1 properties carry over
unchanged.  The delegation sub-protocols are recast in request/response
shape, the way later HTTP credential services (e.g. CILogon) did:

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
import secrets
import threading
import time

from repro.core.protocol import DEFAULT_CRED_NAME, AuthMethod, Request, Command
from repro.core.repository import KEY_ENC_PASSPHRASE, RepositoryEntry
from repro.core.server import MyProxyServer
from repro.pki.certs import Certificate
from repro.pki.credentials import Credential
from repro.pki.keys import FreshKeySource, KeyPair, KeySource, PublicKey
from repro.pki.proxy import sign_proxy_request
from repro.pki.validation import ValidatedIdentity
from repro.util.errors import (
    AuthenticationError,
    AuthorizationError,
    CredentialError,
    NotFoundError,
    PolicyError,
    ProtocolError,
    ReproError,
)
from repro.util.logging import get_logger
from repro.web.http11 import HttpRequest, HttpResponse
from repro.web.server import WebContext, WebServer

logger = get_logger("core.httpbinding")

_POP_LABEL = b"myproxy-http-binding-pop-v1"
_GENERIC_DENIAL = "remote authorization/authentication failed"
PUT_SESSION_TTL = 120.0
#: How long a consumed/expired PUT token's tombstone is kept, so a replay
#: or late completion gets a *distinct* refusal instead of the generic
#: "unknown session" denial.  Past this, replays fold into "unknown".
PUT_TOMBSTONE_TTL = 10 * PUT_SESSION_TTL


def _pop_message(nonce_hex: str, public_pem: bytes, identity: str) -> bytes:
    return _POP_LABEL + bytes.fromhex(nonce_hex) + public_pem + identity.encode()


def _json_response(payload: dict, status: int = 200) -> HttpResponse:
    return HttpResponse(
        status=status,
        headers=[("Content-Type", "application/json")],
        body=json.dumps(payload, sort_keys=True).encode("utf-8"),
    )


def _json_body(request: HttpRequest) -> dict:
    try:
        payload = json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("request body is not valid JSON") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    return payload


class MyProxyHttpGateway:
    """HTTP front end for a :class:`MyProxyServer`'s repository."""

    def __init__(
        self,
        server: MyProxyServer,
        *,
        key_source: KeySource | None = None,
    ) -> None:
        self.server = server
        self.key_source = key_source or server.key_source or FreshKeySource()
        self.web = WebServer(
            "myproxy-http",
            clock=server.clock,
            credential=server.credential,
            validator=server.validator,
        )
        self._pending_puts: dict[str, dict] = {}
        #: token → {"peer", "fate" ("expired" | "used"), "until"} — dead
        #: sessions remembered long enough to name the refusal precisely.
        self._dead_puts: dict[str, dict] = {}
        self._pending_lock = threading.Lock()
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
        self._register_routes()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def handle_secure_link(self, link) -> None:
        """Serve one HTTPS connection (client certificates required)."""
        from repro.transport.channel import accept_secure
        from repro.util.errors import TransportError

        try:
            channel = accept_secure(
                link, self.server.credential, self.server.validator,
                allow_anonymous=False,
            )
        except ReproError as exc:
            logger.info("HTTP-binding handshake rejected: %s", exc)
            return
        try:
            if not self._admit(channel):
                return
            while True:
                try:
                    data = channel.recv()
                except TransportError:
                    break
                try:
                    request = HttpRequest.parse(data)
                    response = self.web.respond(
                        request, secure=True, peer=channel.peer
                    )
                except ProtocolError as exc:
                    response = HttpResponse.error(400, str(exc))
                channel.send(response.serialize())
        finally:
            channel.close()

    def _admit(self, channel) -> bool:
        """Apply the server's per-identity QoS budget to HTTP conversations.

        The HTTP binding bypasses :meth:`MyProxyServer.handle_link`, so
        without this a web client could sidestep the §3 fairness machinery
        entirely.  Refusals mirror the channel protocol's busy reply in
        HTTP shape: a 503 with a ``retry_after`` hint, billed to the noisy
        identity's bucket alone.
        """
        server = self.server
        peer = channel.peer
        if peer is None or server.policy.qos_rate <= 0:
            return True
        subject = str(peer.identity.base_identity())
        qclass = server._class_map.resolve(subject)
        retry = server._identity_limiter.check(
            (qclass.name, subject),
            server.policy.qos_rate * qclass.weight,
            server.policy.effective_qos_burst() * qclass.weight,
        )
        if retry <= 0:
            return True
        server.stats.inc("shed")
        server._shed_reason_total.labels(reason="rate_limited").inc()
        server._audit_event(
            str(peer.identity), "ADMISSION", "", "", False,
            f"HTTP binding rate limited (class {qclass.name}); "
            f"retry in {retry:.3f}s",
            count_denial=False,
        )
        try:
            channel.send(
                _json_response(
                    {"ok": False, "error": "busy", "retry_after": retry}, 503
                ).serialize()
            )
        except ReproError:  # pragma: no cover - peer gone
            pass
        return False

    def serve(self, host: str, port: int) -> tuple[str, int]:
        """Listen for HTTPS connections on ``host:port`` (client certs
        required).  Returns the bound address."""
        from repro.transport.links import SocketLink

        def _per_conn(conn) -> None:
            self.handle_secure_link(SocketLink(conn))

        return self.web.listen(host, port, _per_conn, "https")

    def _register_routes(self) -> None:
        self.add_json_route("/myproxy/get", self._op_get)
        self.add_json_route("/myproxy/put/begin", self._op_put_begin)
        self.add_json_route("/myproxy/put/complete", self._op_put_complete)
        self.add_json_route("/myproxy/info", self._op_info)
        self.add_json_route("/myproxy/destroy", self._op_destroy)
        self.add_json_route("/myproxy/change-passphrase", self._op_change)

    def add_json_route(self, path: str, op, *, audit_command: str = "HTTP") -> None:
        """Mount an authenticated JSON op at ``POST path``.

        The federation subsystem mounts its ``/cdp/*`` endpoints through
        this, so every route shares one error-mapping and observability
        discipline: denials are generic 403s, client mistakes are 400s
        with a precise message, and each request lands in the
        per-endpoint counter/histogram pair.
        """
        self.web.add_route(
            "POST", path, self._route(op, path, audit_command=audit_command)
        )

    def _route(self, op, path: str, *, audit_command: str = "HTTP"):
        def _handler(ctx: WebContext) -> HttpResponse:
            started = time.perf_counter()
            outcome = "error"
            try:
                peer = ctx.peer
                if peer is None or not isinstance(peer, ValidatedIdentity):
                    outcome = "unauthenticated"
                    return _json_response(
                        {"ok": False, "error": "client certificate required"}, 401
                    )
                try:
                    payload = _json_body(ctx.request)
                    response = op(peer, payload)
                    outcome = "ok"
                    return response
                except (AuthenticationError, AuthorizationError, NotFoundError) as exc:
                    outcome = "denied"
                    self.server._audit_event(
                        str(peer.identity), audit_command, "", "", False, str(exc)
                    )
                    return _json_response({"ok": False, "error": _GENERIC_DENIAL}, 403)
                except (PolicyError, CredentialError, ProtocolError) as exc:
                    outcome = "rejected"
                    return _json_response({"ok": False, "error": str(exc)}, 400)
            finally:
                self._requests_total.labels(endpoint=path, outcome=outcome).inc()
                self._request_seconds.labels(endpoint=path).observe(
                    time.perf_counter() - started
                )

        return _handler

    @staticmethod
    def _request_from(payload: dict, command: Command) -> Request:
        try:
            return Request(
                command=command,
                username=str(payload.get("username", "")),
                passphrase=str(payload.get("passphrase", "")),
                lifetime=float(payload.get("lifetime", 0.0)),
                cred_name=str(payload.get("cred_name", DEFAULT_CRED_NAME)),
                auth_method=AuthMethod(payload.get("auth_method", "passphrase")),
                max_get_lifetime=(
                    float(payload["max_get_lifetime"])
                    if payload.get("max_get_lifetime") is not None
                    else None
                ),
                retrievers=(
                    tuple(payload["retrievers"])
                    if payload.get("retrievers") is not None
                    else None
                ),
                renewers=(
                    tuple(payload["renewers"])
                    if payload.get("renewers") is not None
                    else None
                ),
                new_passphrase=str(payload.get("new_passphrase", "")),
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad request fields: {exc}") from exc

    # ------------------------------------------------------------------
    # GET: CSR in, certificate out
    # ------------------------------------------------------------------

    def _op_get(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        server = self.server
        request = self._request_from(payload, Command.GET)
        server._require_acl(server.policy.authorized_retrievers, peer)
        entry = server.repository.get(request.username, request.cred_name)

        if request.auth_method is AuthMethod.RENEWAL:
            key = server._verify_renewal(entry, peer)
        else:
            entry = server._verify_secret(entry, request)
            if entry.retrievers is not None:
                from repro.gsi.acl import AccessControlList

                per_cred = AccessControlList(entry.retrievers, name="credential retrievers")
                if not per_cred.allows(peer.identity):
                    raise AuthorizationError("not an allowed retriever")
            key = None

        now = server.clock.now()
        if entry.not_after <= now:
            raise AuthenticationError("stored credential has expired")
        lifetime = server.policy.clamp_delegation_lifetime(request.lifetime)
        lifetime = min(lifetime, entry.max_get_lifetime, entry.not_after - now)
        if key is None:
            key = server._decrypt_entry_key(entry, request.passphrase)
        stored = server._load_entry_credential(entry, key)

        # Validate the client's CSR: fresh public key + PoP over its nonce,
        # bound to the authenticated identity (no cross-client splicing).
        try:
            public_pem = payload["csr"]["public_key_pem"].encode("ascii")
            nonce_hex = str(payload["csr"]["nonce"])
            pop = base64.b64decode(payload["csr"]["pop"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError("malformed CSR") from exc
        public_key = PublicKey.from_pem(public_pem)
        if len(nonce_hex) < 32:
            raise ProtocolError("CSR nonce too short")
        if not public_key.verify(
            pop, _pop_message(nonce_hex, public_pem, str(peer.identity))
        ):
            raise ProtocolError("CSR proof-of-possession failed")

        issued = sign_proxy_request(
            stored, public_key, lifetime=lifetime, clock=server.clock
        )
        server.stats.inc("gets")
        server._audit_event(
            str(peer.identity), "GET", request.username, request.cred_name, True,
            f"HTTP binding, delegated until {issued.not_after:.0f}",
        )
        chain_pem = b"".join(c.to_pem() for c in stored.full_chain())
        return _json_response(
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
        server = self.server
        server._require_acl(server.policy.accepted_credentials, peer)
        nonce_hex = str(payload.get("nonce", ""))
        if len(nonce_hex) < 32:
            raise ProtocolError("PUT nonce too short")
        key = self.key_source.new_key()
        token = secrets.token_urlsafe(24)
        with self._pending_lock:
            self._reap_pending()
            self._pending_puts[token] = {
                "key": key,
                "peer": str(peer.identity),
                "expires": server.clock.now() + PUT_SESSION_TTL,
            }
        public_pem = key.public.to_pem()
        pop = key.sign(_pop_message(nonce_hex, public_pem, str(peer.identity)))
        return _json_response(
            {
                "ok": True,
                "token": token,
                "public_key_pem": public_pem.decode("ascii"),
                "pop": base64.b64encode(pop).decode("ascii"),
            }
        )

    def _reap_pending(self) -> None:
        now = self.server.clock.now()
        dead = [t for t, s in self._pending_puts.items() if s["expires"] <= now]
        for token in dead:
            session = self._pending_puts.pop(token)
            self._dead_puts[token] = {
                "peer": session["peer"],
                "fate": "expired",
                "until": now + PUT_TOMBSTONE_TTL,
            }
        stale = [t for t, s in self._dead_puts.items() if s["until"] <= now]
        for token in stale:
            del self._dead_puts[token]

    def _take_put_session(self, token: str, peer: ValidatedIdentity) -> dict:
        """Consume a PUT session token exactly once.

        A live, owned token is popped and tombstoned as ``used``; the
        same token presented again — or one whose TTL lapsed — gets a
        *distinct* :class:`ProtocolError` naming the fate, because the
        token is a bearer secret the caller legitimately held and the
        precise reason is actionable (restart the PUT).  Tokens that were
        never issued, or that belong to a different identity, stay on the
        generic denial path: nothing is revealed to a guesser.
        """
        now = self.server.clock.now()
        with self._pending_lock:
            self._reap_pending()
            session = self._pending_puts.get(token)
            if session is not None and session["peer"] == str(peer.identity):
                del self._pending_puts[token]
                self._dead_puts[token] = {
                    "peer": session["peer"],
                    "fate": "used",
                    "until": now + PUT_TOMBSTONE_TTL,
                }
                return session
            tombstone = self._dead_puts.get(token)
        if tombstone is not None and tombstone["peer"] == str(peer.identity):
            if tombstone["fate"] == "used":
                raise ProtocolError(
                    "PUT session token already used (replay refused)"
                )
            raise ProtocolError("PUT session expired")
        raise AuthenticationError("unknown PUT session")

    def _op_put_complete(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        server = self.server
        server._require_acl(server.policy.accepted_credentials, peer)
        session = self._take_put_session(str(payload.get("token", "")), peer)
        entry = self._complete_delegation(
            peer, payload, session["key"], command="PUT", stat="puts",
            detail_prefix="HTTP binding",
        )
        return _json_response(
            {"ok": True, "stored": True, "not_after": entry.not_after}
        )

    def _complete_delegation(
        self,
        peer: ValidatedIdentity,
        payload: dict,
        key: KeyPair,
        *,
        command: str,
        stat: str,
        detail_prefix: str,
    ) -> RepositoryEntry:
        """Validate a client-signed proxy for a server-held key and store it.

        Shared tail of the two delegation-to-the-repository protocols:
        the ``/myproxy/put`` pair here and the IVOA CDP ``certificate``
        step in :mod:`repro.federation.cdp` — same certificate/key/chain
        checks, same policy gates, same repository entry shape.
        """
        server = self.server
        request = self._request_from(payload, Command.PUT)
        server.policy.passphrase_policy.check_username(request.username)
        lifetime = request.lifetime or server.policy.max_stored_lifetime
        server.policy.check_stored_lifetime(lifetime)
        verifier, key_encryption = server._initial_verifier(request)

        try:
            cert = Certificate.from_pem(payload["certificate_pem"].encode("ascii"))
            chain = tuple(
                Certificate.list_from_pem(payload["chain_pem"].encode("ascii"))
            )
        except (KeyError, TypeError) as exc:
            raise ProtocolError("missing certificate material") from exc
        if cert.public_key != key.public:
            raise ProtocolError("certificate does not match the session key")
        delegated = Credential(certificate=cert, key=key, chain=chain)
        if delegated.identity != peer.identity:
            raise PolicyError("delegated credential does not match the client")
        server.validator.validate(delegated.full_chain())
        now = server.clock.now()
        if cert.not_after > now + server.policy.max_stored_lifetime + 120.0:
            raise PolicyError("credential outlives the stored-lifetime policy")

        if key_encryption == KEY_ENC_PASSPHRASE:
            key_pem = key.to_pem(request.passphrase)
        else:
            key_pem = server.master_box.seal(key.to_pem())
        key_pem_renewal = None
        if request.renewers is not None:
            if not server.policy.allow_renewal_auth:
                raise PolicyError("this repository does not allow renewal")
            key_pem_renewal = server.master_box.seal(key.to_pem())
        max_get = request.max_get_lifetime
        if max_get is None or max_get <= 0:
            max_get = server.policy.max_delegation_lifetime
        entry = RepositoryEntry(
            username=request.username,
            cred_name=request.cred_name,
            owner_dn=str(peer.identity),
            certificate_pem=b"".join(c.to_pem() for c in delegated.full_chain()),
            key_pem=key_pem,
            key_encryption=key_encryption,
            verifier=verifier,
            max_get_lifetime=max_get,
            retrievers=request.retrievers,
            created_at=now,
            not_after=cert.not_after,
            long_term=False,
            renewers=request.renewers,
            key_pem_renewal=key_pem_renewal,
        )
        server.repository.put(entry)
        server.stats.inc(stat)
        server._audit_event(
            str(peer.identity), command, request.username, request.cred_name, True,
            f"{detail_prefix}, stored until {entry.not_after:.0f}",
        )
        return entry

    # ------------------------------------------------------------------
    # INFO / DESTROY / CHANGE — straight JSON reuse of the server logic
    # ------------------------------------------------------------------

    def _op_info(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        server = self.server
        request = self._request_from(payload, Command.INFO)
        server._require_acl(server.policy.accepted_credentials, peer)
        entries = server._owned_entries(peer, request.username)
        now = server.clock.now()
        rows = [
            {
                "cred_name": e.cred_name,
                "owner": e.owner_dn,
                "not_after": e.not_after,
                "seconds_remaining": max(e.not_after - now, 0.0),
                "max_get_lifetime": e.max_get_lifetime,
                "auth_method": e.auth_method,
                "long_term": e.long_term,
                "retrievers": list(e.retrievers) if e.retrievers is not None else None,
            }
            for e in entries
        ]
        return _json_response({"ok": True, "credentials": rows})

    def _op_destroy(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        server = self.server
        request = self._request_from(payload, Command.DESTROY)
        server._require_acl(server.policy.accepted_credentials, peer)
        entry = server.repository.get(request.username, request.cred_name)
        if entry.owner_dn != str(peer.identity):
            raise AuthorizationError("not the owner")
        server.repository.delete(request.username, request.cred_name)
        server._audit_event(
            str(peer.identity), "DESTROY", request.username, request.cred_name,
            True, "HTTP binding",
        )
        return _json_response({"ok": True, "destroyed": True})

    def _op_change(self, peer: ValidatedIdentity, payload: dict) -> HttpResponse:
        server = self.server
        request = self._request_from(payload, Command.CHANGE_PASSPHRASE)
        server._change_passphrase(peer, request, "HTTP binding")
        return _json_response({"ok": True, "changed": True})


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
        from repro.util.clock import SYSTEM_CLOCK

        self._target = target
        self.credential = credential
        self.validator = validator
        self.key_source = key_source or FreshKeySource()
        self.clock = clock or SYSTEM_CLOCK

    def _call(self, path: str, payload: dict) -> dict:
        from repro.web.client import SecureTransport

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
            raise AuthenticationError(
                f"gateway refused ({response.status}): {answer.get('error')}"
            )
        return answer

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
        """GET via CSR: the private key is generated here and never sent."""
        key = self.key_source.new_key()
        nonce = secrets.token_hex(16)
        public_pem = key.public.to_pem()
        pop = key.sign(
            _pop_message(nonce, public_pem, str(self.credential.identity))
        )
        answer = self._call(
            "/myproxy/get",
            {
                "username": username,
                "passphrase": passphrase,
                "lifetime": lifetime,
                "cred_name": cred_name,
                "auth_method": auth_method.value,
                "csr": {
                    "public_key_pem": public_pem.decode("ascii"),
                    "nonce": nonce,
                    "pop": base64.b64encode(pop).decode("ascii"),
                },
            },
        )
        cert = Certificate.from_pem(answer["certificate_pem"].encode("ascii"))
        chain = tuple(Certificate.list_from_pem(answer["chain_pem"].encode("ascii")))
        if cert.public_key != key.public:
            raise CredentialError("gateway returned a certificate for another key")
        return Credential(certificate=cert, key=key, chain=chain)

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
        public_pem = begin["public_key_pem"].encode("ascii")
        public_key = PublicKey.from_pem(public_pem)
        pop = base64.b64decode(begin["pop"])
        if not public_key.verify(
            pop, _pop_message(nonce, public_pem, str(self.credential.identity))
        ):
            raise ProtocolError("server CSR proof-of-possession failed")
        cert = sign_proxy_request(
            source_credential, public_key, lifetime=lifetime, clock=self.clock
        )
        chain_pem = b"".join(c.to_pem() for c in source_credential.full_chain())
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
                "certificate_pem": cert.to_pem().decode("ascii"),
                "chain_pem": chain_pem.decode("ascii"),
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
