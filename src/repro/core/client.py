"""The MyProxy client tools as a Python API (§4.1, §4.2).

One method per command-line tool of the original release:

=============================  =========================================
paper / original tool          method
=============================  =========================================
``myproxy-init``               :meth:`MyProxyClient.put` (Figure 1)
``myproxy-get-delegation``     :meth:`MyProxyClient.get_delegation`
                               (Figure 2)
``myproxy-destroy``            :meth:`MyProxyClient.destroy`
``myproxy-info``               :meth:`MyProxyClient.info`
``myproxy-change-pass-phrase`` :meth:`MyProxyClient.change_passphrase`
(§6.1 extensions)              :meth:`MyProxyClient.store_longterm`,
                               :meth:`MyProxyClient.retrieve_longterm`
=============================  =========================================

A client is configured with the credential it authenticates *as* (a user's
proxy for ``put``, a portal's host credential for ``get_delegation``) and
the endpoint of one repository; a portal that talks to several repositories
holds one client per repository (§3.3's scalability goal).

:class:`ClientCore` is the one client loop under both bindings:
:class:`MyProxyClient` runs the GSI codec on it,
:class:`~repro.core.httpbinding.HttpMyProxyClient` (and so the IVOA CDP
client) the §6.4 JSON codec, and
:class:`~repro.cluster.failover.FailoverMyProxyClient` is a
:class:`MyProxyClient` whose endpoints are the user's shard, in order.

After an operation that completed normally, a client keeps one idle
channel per (leaf subject, endpoint), the key its session tickets are
filed under (PROTOCOL.md §6), and runs its next operation to that endpoint
on it: no connect, no handshake, for either binding.  A renewal agent that
swaps in its fresh proxy keeps the channel; a swap to another subject
(a limited proxy, another user) dials.  Any exception closes the channel it
happened on; :meth:`ClientCore.close` (or leaving a ``with`` block) closes
every idle one, which short-lived clients should use so no idle channel
outlives them.
"""

from __future__ import annotations

import dataclasses
import json
import random
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from repro.core.otp import OTPGenerator
from repro.obs.registry import MetricsRegistry
from repro.core.protocol import (
    DEFAULT_CRED_NAME,
    GSI,
    AuthMethod,
    BatchItem,
    Command,
    Reply,
    Request,
    Response,
    StoredCredentialInfo,
)
from repro.core.policy import ONE_WEEK
from repro.pki.ca import CertificateRevocationList
from repro.pki.certs import Certificate
from repro.pki.credentials import Credential
from repro.pki.keys import FreshKeySource, KeyPair, KeySource
from repro.pki.proxy import create_proxy
from repro.pki.validation import ChainValidator
from repro.transport.channel import PeerClosedError, SecureChannel, connect_secure
from repro.transport.delegation import (
    CSR_POP_LABEL,
    accept_csr_reply,
    delegate_credential,
    new_csr,
)
from repro.transport.links import Link
from repro.transport.tickets import TicketStore
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import (
    AuthenticationError,
    HandshakeError,
    ProtocolError,
    ServerBusyError,
    TransportError,
)

LinkFactory = Callable[[], Link]


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for transport-level failures.

    One *round* tries every configured endpoint once; between rounds the
    client sleeps ``min(base_delay * multiplier**i, max_delay)``, scaled
    down by up to ``jitter`` (a fraction in [0, 1)) so a fleet of clients
    recovering from the same node kill does not reconnect in lock-step.
    Every backoff therefore lies in ``[cap * (1 - jitter), cap]``.

    The default (one round, no sleep) preserves the original single-shot
    client behaviour.  Only :class:`~repro.util.errors.TransportError` /
    :class:`~repro.util.errors.HandshakeError` are retried — a server that
    *refuses* (wrong pass phrase, ACL denial) answers authoritatively and
    retrying would burn OTP words and lockout budget.

    A *busy* answer (:class:`~repro.util.errors.ServerBusyError`, carrying
    the server's ``RETRY_AFTER`` hint) is neither: the node is alive and
    explicitly asked us to come back, so the client sleeps the hinted time
    (capped at ``max_retry_after``) and retries the *same* target up to
    ``busy_retries`` times before moving on — without counting a failover,
    because nothing failed.
    """

    rounds: int = 1
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    #: Consecutive busy replies honored per target per operation before
    #: the client gives up on that target for this round.
    busy_retries: int = 3
    #: Cap on a single honored ``RETRY_AFTER`` sleep — a confused server
    #: must not be able to park a client for an hour.
    max_retry_after: float = 30.0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("retry policy needs at least one round")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        if self.busy_retries < 0:
            raise ValueError("busy_retries must be non-negative")
        if self.max_retry_after <= 0:
            raise ValueError("max_retry_after must be positive")

    def backoffs(self, rng: random.Random | None = None) -> Iterator[float]:
        """The sleep before each retry round (``rounds - 1`` values)."""
        pick = (rng or random).random
        for i in range(self.rounds - 1):
            cap = min(self.base_delay * self.multiplier**i, self.max_delay)
            yield cap * (1.0 - self.jitter * pick())


#: ClientStats counter fields with their Prometheus names and help text.
_CLIENT_COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("operations", "myproxy_client_operations_total",
     "Protocol operations attempted (one per put/get/info/...)."),
    ("dial_attempts", "myproxy_client_dial_attempts_total",
     "Individual endpoint dials, including retries and fallbacks."),
    ("transport_failures", "myproxy_client_transport_failures_total",
     "Dials or conversations lost to transport/handshake failures."),
    ("failovers", "myproxy_client_failovers_total",
     "Operations that succeeded only after rotating past a failed dial."),
    ("retry_rounds", "myproxy_client_retry_rounds_total",
     "Backoff sleeps taken between full endpoint rounds."),
    ("busy_backoffs", "myproxy_client_busy_backoffs_total",
     "Busy replies honored: slept the server's RETRY_AFTER, retried "
     "the same target."),
    ("exhausted", "myproxy_client_exhausted_total",
     "Operations that failed every endpoint in every round."),
    ("retry_budget_exhausted", "myproxy_client_retry_budget_exhausted_total",
     "Operations refused an extra dial because the shared retry budget "
     "ran dry (see repro.cluster.resilience.RetryBudget)."),
    ("resumed_handshakes", "myproxy_client_resumed_handshakes_total",
     "Connections established by redeeming a session-resumption ticket."),
    ("full_handshakes", "myproxy_client_full_handshakes_total",
     "Connections that ran the full RSA handshake."),
)


class ClientStats:
    """Retry/failover counters for a client, exact under concurrency.

    A client owns one by default; clients built with a shared one (a load
    generator's, a renewal agent's) count together.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(metric, help_text)
            for name, metric, help_text in _CLIENT_COUNTERS
        }

    def inc(self, field: str, amount: int = 1) -> None:
        counter = self._counters.get(field)
        if counter is None:
            raise AttributeError(f"ClientStats has no counter {field!r}")
        counter.inc(amount)

    def __getattr__(self, name: str):
        counters = object.__getattribute__(self, "_counters")
        if name in counters:
            return counters[name].value
        raise AttributeError(name)

    def snapshot(self) -> dict:
        return {name: self._counters[name].value for name, _, _ in _CLIENT_COUNTERS}


class _StaleChannel(Exception):
    """A kept channel the server had already ended: it read no request."""


class ClientCore:
    """The one client loop under both bindings.

    It dials, keeps channels, redials a stale one, backs off on busy,
    fails over across endpoints and consults the resilience guard; a
    binding supplies only its conversation (the codec) and maps each
    refusal through :meth:`_refusal` and reads each OK reply as its
    :class:`~repro.core.protocol.Reply`.  :class:`MyProxyClient` speaks the GSI
    codec on it, :class:`~repro.core.httpbinding.HttpMyProxyClient` the
    §6.4 JSON codec.
    """

    def __init__(
        self,
        target: tuple[str, int] | LinkFactory,
        credential: Credential,
        validator: ChainValidator,
        *,
        clock: Clock = SYSTEM_CLOCK,
        key_source: KeySource | None = None,
        fallbacks: Sequence[tuple[str, int] | LinkFactory] = (),
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
        stats: ClientStats | None = None,
        ticket_store: TicketStore | None = None,
        guard=None,
    ) -> None:
        self._target = target
        self._targets = (target, *fallbacks)
        self.credential = credential
        self.validator = validator
        self.clock = clock
        self.key_source = key_source
        self.retry = retry or RetryPolicy()
        self._sleep = sleep
        self._rng = rng
        # Optional resilience guard (repro.cluster.resilience.OperationGuard
        # or anything with the same allow_dial/on_success/on_failure/pace
        # surface).  Kept duck-typed: the core client must not import the
        # cluster layer.
        self._guard = guard
        # Retry/failover accounting; pass a shared ClientStats to aggregate
        # across several clients.
        self.stats = stats if stats is not None else ClientStats()
        # Session-resumption tickets, keyed by _ticket_key (our subject plus
        # the endpoint).  The default is a private store (each client
        # remembers its own servers); a portal that builds many short-lived
        # clients shares one store so tickets outlive the client objects
        # that earned them.
        self.ticket_store = ticket_store if ticket_store is not None else TicketStore()
        # Idle channels, one per _ticket_key they were opened under.  A
        # swapped-in credential with the same leaf subject finds its
        # channel; the server re-checks the chain the channel proved
        # before every request (DESIGN §6.5).  A conversation takes its
        # channel out under the lock, so two never interleave on one.
        self._idle: dict[str, SecureChannel] = {}
        self._idle_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close every idle channel; the client stays usable."""
        with self._idle_lock:
            idle, self._idle = self._idle, {}
        for channel in idle.values():
            channel.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the loop -----------------------------------------------------------

    @staticmethod
    def _ticket_key(
        target: tuple[str, int] | LinkFactory, credential: Credential | None
    ) -> str:
        """Who we authenticate as (the leaf subject) and where we dial.

        Session tickets and kept channels are both filed under this
        key.  It binds *who we are* as well as where we dial: a shared
        store must never hand one identity's ticket to a client
        authenticating as another (the server would resume the wrong
        peer).  A swapped-in credential with the same subject finds both;
        each still proves the chain it was issued for, which the server
        re-checks before every request (DESIGN §6.5).
        """
        if callable(target):
            where = f"link:{id(target)}"
        else:
            host, port = target
            where = f"{host}:{port}"
        who = str(credential.certificate.subject) if credential is not None else "<anonymous>"
        return f"{who}|{where}"

    def _connect(self, target: tuple[str, int] | LinkFactory) -> SecureChannel:
        channel = connect_secure(
            target() if callable(target) else target,
            self.credential,
            self.validator,
            ticket_store=self.ticket_store,
            ticket_key=self._ticket_key(target, self.credential),
            now=self.clock.now(),
        )
        self.stats.inc("resumed_handshakes" if channel.resumed else "full_handshakes")
        return channel

    def _checkout(self, key: str | None) -> SecureChannel | None:
        """Take the idle channel filed under ``key``, if there is one."""
        with self._idle_lock:
            return self._idle.pop(key, None)

    def _checkin(self, key: str, channel: SecureChannel) -> None:
        with self._idle_lock:
            kept = self._idle.setdefault(key, channel)
        if kept is not channel:
            channel.close()

    def _exchange(
        self,
        key: str | None,
        channel: SecureChannel,
        reused: bool,
        conversation: Callable[[SecureChannel], object],
    ):
        """Run ``conversation`` on ``channel``, then keep it under ``key``
        or, when ``key`` is None, close it.

        On a reused channel, a close alert in place of the first reply
        means the server ended the channel without reading the request:
        :class:`_StaleChannel`, safe to redial.
        """
        if key is None:
            with channel:
                return conversation(channel)
        before = channel.received
        try:
            if reused and channel.peer_closing():
                raise _StaleChannel
            result = conversation(channel)
        except PeerClosedError:
            channel.close()
            if reused and channel.received == before:
                raise _StaleChannel from None
            raise
        except BaseException:
            channel.close()
            raise
        self._checkin(key, channel)
        return result

    def _route(self, username: str | None):
        """An operation's endpoints in dial order, and its resilience
        guard: this client's target, then its fallbacks."""
        return self._targets, self._guard

    def _converse(
        self, conversation: Callable[[SecureChannel], object], username: str | None = None
    ):
        """Run one request conversation with endpoint failover + backoff.

        :meth:`_route` names the endpoints for ``username``'s operation.
        The first attempt rides the idle channel kept for the first
        endpoint and the current credential's subject.  Only
        authenticated channels are kept: anonymous channels serve one
        request.  If the server had
        already ended it (idle timeout, trust change, restart) without
        reading the request, the client redials once, transparently: that
        is not a transport failure, trips no breaker and costs no retry
        budget.  Any other failure on a reused channel takes the ordinary
        transport-failure path below, because the server may already have
        acted on the request.

        Each round dials the endpoints in order on a fresh
        mutually-authenticated channel; only transport/handshake failures
        rotate onward.  Conversations must be safe to re-run from the top
        (every MyProxy command is: PUT/STORE replace the entry, GET/INFO
        are reads, DESTROY tolerates repetition server-side).

        A :class:`~repro.util.errors.ServerBusyError` — the server's
        graceful shed, pre- or post-handshake — is handled differently
        from a failure: the node is alive, so the client sleeps the
        hinted ``RETRY_AFTER`` and redials the *same* target (up to
        ``retry.busy_retries`` times) instead of declaring it dead and
        rotating.  Only a real transport failure marks a target failed.

        When a resilience guard is attached it is consulted before every
        dial (circuit breakers may skip an endpoint; an exhausted retry
        budget or an expired deadline aborts the operation) and around
        every sleep (backoffs are clamped to the deadline).
        """
        targets, guard = self._route(username)
        backoffs = self.retry.backoffs(self._rng)
        last: Exception | None = None
        self.stats.inc("operations")
        rotated = False  # at least one dial already failed this operation
        attempted = False  # the guard's retry budget never charges dial one
        reuse = True  # only the operation's first attempt may reuse
        for round_no in range(self.retry.rounds):
            if round_no:
                self.stats.inc("retry_rounds")
                delay = next(backoffs)
                self._sleep(guard.pace(delay) if guard is not None else delay)
            for index, target in enumerate(targets):
                busy_left = self.retry.busy_retries
                while True:
                    credential = self.credential
                    key = self._ticket_key(target, credential) if credential is not None else None
                    channel = self._checkout(key) if reuse else None
                    reuse = False
                    reused = channel is not None
                    if not reused:
                        if guard is not None and not guard.allow_dial(
                            index, first=not attempted
                        ):
                            break  # breaker open for this endpoint: skip it
                        attempted = True
                        self.stats.inc("dial_attempts")
                    try:
                        if channel is None:
                            channel = self._connect(target)
                        result = self._exchange(key, channel, reused, conversation)
                    except _StaleChannel:
                        continue  # the request was never read: dial afresh
                    except ServerBusyError as exc:
                        last = exc
                        if guard is not None:
                            # A busy reply proves the node is alive; it
                            # must not trip the breaker.
                            guard.on_success(index)
                        if busy_left <= 0:
                            break  # this target stays "alive", move along
                        busy_left -= 1
                        self.stats.inc("busy_backoffs")
                        delay = min(exc.retry_after, self.retry.max_retry_after)
                        self._sleep(
                            guard.pace(delay) if guard is not None else delay
                        )
                        continue  # same target: busy is not failure
                    except (TransportError, HandshakeError) as exc:
                        last = exc
                        self.stats.inc("transport_failures")
                        if guard is not None:
                            guard.on_failure(index)
                        rotated = True
                        break
                    if guard is not None:
                        guard.on_success(index)
                    if rotated:
                        self.stats.inc("failovers")
                    return result
        self.stats.inc("exhausted")
        raise last if last is not None else TransportError("no targets to dial")

    # -- the steps both bindings share ----------------------------------------

    @staticmethod
    def _refusal(response: Response, refused: str = "server refused") -> Exception | None:
        """What a reply that is not OK stands for: a busy reply is a
        :class:`ServerBusyError` carrying its hint, any other refusal an
        :class:`AuthenticationError`; an OK reply stands for nothing."""
        if response.busy:
            return ServerBusyError(f"server busy: {response.error}", response.retry_after)
        if not response.ok:
            return AuthenticationError(f"{refused}: {response.error}")
        return None

    def _keyed_csr(self, label: bytes = CSR_POP_LABEL) -> tuple[KeyPair, dict | None]:
        """A GET's fresh key and its CSR, bound to the identity we
        authenticate as (an anonymous client, which no server serves a
        GET, sends none)."""
        key = (self.key_source or FreshKeySource()).new_key()
        if self.credential is None:
            return key, None
        return key, new_csr(key, self.credential.identity, label=label)

    def _granted(self, grant, lifetime: float) -> dict:
        """The terms a GET's proxy is held to, as ``accept_issue``
        keywords: the lifetime and limited flag of the server's
        :attr:`~repro.core.protocol.Reply.GRANT`, under ``lifetime`` as
        the maximum when one was asked for."""
        if grant.granted_lifetime <= 0:
            raise ProtocolError("GET response's granted lifetime must be positive")
        return dict(lifetime=grant.granted_lifetime, maximum=lifetime or None,
                    limited=grant.limited, clock=self.clock)


class MyProxyClient(ClientCore):
    """Speaks the MyProxy protocol to one repository."""

    @classmethod
    def _expect_ok(cls, channel: SecureChannel, reply: Reply) -> tuple[Response, object]:
        """The next response, which must be OK, and its ``INFO`` read as
        ``reply``."""
        response = Response.decode(channel.recv())
        problem = cls._refusal(response)
        if problem is not None:
            raise problem
        return response, reply.read(response.info, GSI)

    def _ask(self, request: Request, reply: Reply, then=None):
        """One operation: send ``request`` and expect an OK ``reply``, then
        finish with ``then(channel, reply read)`` when given (a command's
        transfer step) or return the response."""

        def conversation(channel: SecureChannel):
            channel.send(request.encode())
            response, read = self._expect_ok(channel, reply)
            return response if then is None else then(channel, read)

        return self._converse(conversation, request.username)

    # -- Figure 1: delegate a proxy *to* the repository ------------------------

    def put(
        self,
        source_credential: Credential,
        *,
        username: str,
        passphrase: str = "",
        lifetime: float = ONE_WEEK,
        max_get_lifetime: float | None = None,
        retrievers: tuple[str, ...] | None = None,
        renewers: tuple[str, ...] | None = None,
        cred_name: str = DEFAULT_CRED_NAME,
        auth_method: AuthMethod = AuthMethod.PASSPHRASE,
        otp: OTPGenerator | None = None,
        site_realm: str | None = None,
    ) -> Response:
        """``myproxy-init``: delegate ``source_credential`` to the repository.

        ``source_credential`` is normally the user's long-term credential
        (already decrypted locally — the pass phrase for the *key file*
        never leaves the machine; the ``passphrase`` argument here is the
        separate §4.1 retrieval secret).

        For ``auth_method=OTP`` pass an :class:`OTPGenerator`; for ``SITE``
        pass the realm name.  Returns the commit response.
        """
        secret = passphrase
        if auth_method is AuthMethod.OTP:
            if otp is None:
                raise ProtocolError("OTP registration needs an OTPGenerator")
            secret = json.dumps(otp.initial_verifier().to_payload())
        elif auth_method is AuthMethod.SITE:
            if not site_realm:
                raise ProtocolError("site registration needs a realm name")
            secret = site_realm

        request = Request(
            command=Command.PUT,
            username=username,
            passphrase=secret,
            lifetime=lifetime,
            cred_name=cred_name,
            auth_method=auth_method,
            max_get_lifetime=max_get_lifetime,
            retrievers=retrievers,
            renewers=renewers,
        )

        def deliver(channel: SecureChannel, _accepted) -> Response:
            delegate_credential(
                channel, source_credential, lifetime=lifetime, clock=self.clock
            )
            return self._expect_ok(channel, Reply.COMMIT)[0]

        return self._ask(request, Reply.ACCEPTED, deliver)

    # -- Figure 2: retrieve a delegation *from* the repository ------------------

    def get_delegation(
        self,
        *,
        username: str,
        passphrase: str = "",
        lifetime: float = 0.0,
        cred_name: str = DEFAULT_CRED_NAME,
        auth_method: AuthMethod = AuthMethod.PASSPHRASE,
    ) -> Credential:
        """``myproxy-get-delegation``: obtain a fresh proxy for ``username``.

        ``passphrase`` carries whatever secret the entry's auth method
        expects (static pass phrase, the next OTP word, or a site ticket).
        Returns the delegated proxy credential, private key and all —
        generated locally; only the public half traveled.

        The key and its CSR are made before the request is sent, so the
        server answers in one flight (PROTOCOL.md §4).  A refused GET
        leaves that key unused.
        """
        key, csr = self._keyed_csr()
        request = Request(
            command=Command.GET,
            username=username,
            passphrase=passphrase,
            lifetime=lifetime,
            cred_name=cred_name,
            auth_method=auth_method,
            csr=csr,
        )
        return self._ask(
            request, Reply.GRANT,
            lambda channel, grant: accept_csr_reply(channel, key, **self._granted(grant, lifetime)),
        )

    def get_delegations(
        self, items: Sequence[BatchItem]
    ) -> list[Credential | Exception]:
        """Batched ``GET``: many delegations over one connection.

        One handshake (or ticket redemption) covers the whole batch, so a
        portal fetching proxies for N users pays the asymmetric setup cost
        once instead of N times.  Returns one result per item, in order:
        a :class:`Credential` on success, or the server's refusal as an
        :class:`~repro.util.errors.AuthenticationError` (a
        :class:`~repro.util.errors.ServerBusyError` for a busy item) —
        one bad pass phrase does not cost the rest of the batch.
        """
        if not items:
            return []
        keyed = [self._keyed_csr() for _ in items]
        request = Request(
            command=Command.GET_MULTI,
            username=items[0].username,
            batch=tuple(
                dataclasses.replace(item, csr=csr) for item, (_, csr) in zip(items, keyed)
            ),
        )

        def each(channel: SecureChannel, ack) -> list[Credential | Exception]:
            if ack.count != len(items):
                raise ProtocolError(
                    f"server acknowledged {ack.count} batch items, sent {len(items)}"
                )
            results: list[Credential | Exception] = []
            for item, (key, _) in zip(items, keyed):
                response = Response.decode(channel.recv())
                problem = self._refusal(response)
                results.append(
                    problem
                    if problem is not None
                    else accept_csr_reply(channel, key, **self._granted(
                        Reply.GRANT.read(response.info, GSI), item.lifetime
                    ))
                )
            return results

        return self._ask(request, Reply.BATCH, each)

    # -- housekeeping -----------------------------------------------------------

    def info(self, *, username: str) -> list[StoredCredentialInfo]:
        """``myproxy-info``: list the credentials you own under ``username``."""
        return self._ask(
            Request(command=Command.INFO, username=username), Reply.LISTING,
            lambda channel, listing: list(listing.credentials),
        )

    def destroy(
        self, *, username: str, cred_name: str = DEFAULT_CRED_NAME
    ) -> Response:
        """``myproxy-destroy``: remove a credential you own."""
        return self._ask(
            Request(command=Command.DESTROY, username=username, cred_name=cred_name),
            Reply.DESTROYED,
        )

    def change_passphrase(
        self,
        *,
        username: str,
        old_passphrase: str,
        new_passphrase: str,
        cred_name: str = DEFAULT_CRED_NAME,
    ) -> Response:
        """``myproxy-change-pass-phrase``."""
        return self._ask(
            Request(
                command=Command.CHANGE_PASSPHRASE,
                username=username,
                passphrase=old_passphrase,
                new_passphrase=new_passphrase,
                cred_name=cred_name,
            ),
            Reply.CHANGED,
        )

    # -- trust distribution ------------------------------------------------------

    def get_trustroots(self) -> tuple[list, list]:
        """``myproxy-get-trustroots``: the repository's CAs and fresh CRLs.

        Returns ``(certificates, crls)``.  Works anonymously too: construct
        the client with ``credential=None`` (the server must allow it).
        """
        roots = self._ask(
            Request(command=Command.TRUSTROOTS, username="trustroots"), Reply.TRUSTROOTS,
            lambda channel, roots: roots,
        )
        return (
            [Certificate.from_pem(pem.encode()) for pem in roots.cas],
            [CertificateRevocationList.from_json(doc) for doc in roots.crls],
        )

    def refresh_trust_directory(self, trustdir) -> tuple[int, int]:
        """Install fetched anchors + CRLs into a local trust directory.

        Returns ``(cas_installed, crls_installed)``.  CRL signatures are
        verified against their CA at install time, so a hostile repository
        cannot plant revocations for CAs it does not control.
        """
        cas, crls = self.get_trustroots()
        ca_count = 0
        for ca in cas:
            trustdir.install_ca(ca)
            ca_count += 1
        crl_count = 0
        for crl in crls:
            trustdir.install_crl(crl)
            crl_count += 1
        return ca_count, crl_count

    # -- §6.1: managed long-term credentials --------------------------------------

    def store_longterm(
        self,
        credential: Credential,
        *,
        username: str,
        passphrase: str,
        cred_name: str = DEFAULT_CRED_NAME,
        max_get_lifetime: float | None = None,
        retrievers: tuple[str, ...] | None = None,
    ) -> Response:
        """Store a *long-term* credential for server-side proxy minting.

        The private key is encrypted under ``passphrase`` locally before
        transmission, and the repository persists exactly those bytes — the
        plaintext long-term key never exists on the server's disk.
        """
        request = Request(
            command=Command.STORE,
            username=username,
            passphrase=passphrase,
            cred_name=cred_name,
            max_get_lifetime=max_get_lifetime,
            retrievers=retrievers,
        )
        blob = credential.export_pem(passphrase)

        def upload(channel: SecureChannel, _accepted) -> Response:
            channel.send(blob)
            return self._expect_ok(channel, Reply.STORED)[0]

        return self._ask(request, Reply.ACCEPTED, upload)

    def retrieve_longterm(
        self,
        *,
        username: str,
        passphrase: str,
        cred_name: str = DEFAULT_CRED_NAME,
    ) -> Credential:
        """Fetch a stored long-term credential back (key arrives encrypted)."""
        request = Request(
            command=Command.RETRIEVE,
            username=username,
            passphrase=passphrase,
            cred_name=cred_name,
        )
        blob = self._ask(request, Reply.RETRIEVED, lambda channel, _ok: channel.recv())
        return Credential.import_pem(blob, passphrase)


def myproxy_init_from_longterm(
    client: MyProxyClient,
    longterm: Credential,
    *,
    username: str,
    passphrase: str,
    lifetime: float = ONE_WEEK,
    key_source: KeySource | None = None,
    **put_kwargs,
) -> Response:
    """The exact §4.1 flow: mint a proxy locally, then delegate it onward.

    ``myproxy-init`` does not hand the long-term credential itself to the
    repository — it creates a proxy (so the repository only ever holds
    short-term material) and delegates *that*.
    """
    proxy = create_proxy(
        longterm,
        lifetime=lifetime,
        key_source=key_source,
        clock=client.clock,
    )
    return client.put(
        proxy,
        username=username,
        passphrase=passphrase,
        lifetime=lifetime,
        **put_kwargs,
    )
