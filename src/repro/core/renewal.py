"""Credential renewal for long-running jobs (§6.6).

"It is not uncommon for computational jobs to run for a period of time that
exceed the lifetime of the proxy credential they receive on startup ...
We plan to investigate mechanisms to enable MyProxy to securely support
long-running applications by being able to supply them with fresh
credentials when needed."

:class:`RenewalAgent` watches a set of *renewal targets* (anything holding
a credential and able to receive a new one — the Condor-G-style job manager
of :mod:`repro.condor` registers its jobs here).  When a target's remaining
lifetime drops below a threshold, the agent retrieves a fresh delegation
from the repository and hands it to the target.

Secrets are provided by a callable, so static pass phrases, OTP generators
(each renewal consumes one word) and site tickets all work.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.client import MyProxyClient
from repro.core.protocol import DEFAULT_CRED_NAME, AuthMethod
from repro.pki.credentials import Credential
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.concurrency import ServiceThread
from repro.util.errors import ReproError
from repro.util.logging import get_logger

logger = get_logger("core.renewal")

SecretProvider = Callable[[], str]


@dataclass
class RenewalTarget:
    """One credential-holding thing the agent keeps alive."""

    name: str
    get_credential: Callable[[], Credential | None]
    set_credential: Callable[[Credential], None]
    username: str
    secret: SecretProvider
    cred_name: str = DEFAULT_CRED_NAME
    auth_method: AuthMethod = AuthMethod.PASSPHRASE
    lifetime: float = 0.0  # 0 → server default
    #: Renew when less than this many seconds remain.
    threshold: float = 600.0
    #: Set when the target no longer needs renewal (job finished).
    finished: Callable[[], bool] = lambda: False


@dataclass
class RenewalEvent:
    """Audit record of one renewal attempt."""

    at: float
    target: str
    ok: bool
    detail: str


class RenewalAgent:
    """Periodically refreshes credentials from a MyProxy repository."""

    def __init__(
        self,
        client: MyProxyClient,
        *,
        clock: Clock = SYSTEM_CLOCK,
        poll_interval: float = 30.0,
        client_factory: Callable[[Credential], MyProxyClient] | None = None,
    ) -> None:
        self.client = client
        self.clock = clock
        self.poll_interval = poll_interval
        #: Builds a repository client authenticated *as a given credential*
        #: — required for ``AuthMethod.RENEWAL`` targets, where the proof
        #: of renewal rights is possession of the expiring proxy itself.
        #: The agent builds one such client, on first use, and points it
        #: at each target's current proxy in turn, so renewals under one
        #: subject share its kept channel; :meth:`stop` closes it.
        self.client_factory = client_factory
        self._possession_client: MyProxyClient | None = None
        # Held from the credential swap to the reply, so two concurrent
        # passes never renew one target with another's proxy.
        self._possession_lock = threading.Lock()
        self._targets: dict[str, RenewalTarget] = {}
        self._lock = threading.Lock()
        self._events: list[RenewalEvent] = []
        self._thread: ServiceThread | None = None

    # -- registration -----------------------------------------------------------

    def register(self, target: RenewalTarget) -> None:
        with self._lock:
            if target.name in self._targets:
                raise ReproError(f"renewal target {target.name!r} already registered")
            self._targets[target.name] = target

    def unregister(self, name: str) -> None:
        with self._lock:
            self._targets.pop(name, None)

    @property
    def events(self) -> list[RenewalEvent]:
        with self._lock:
            return list(self._events)

    def _record(self, target: str, ok: bool, detail: str) -> None:
        with self._lock:
            self._events.append(
                RenewalEvent(at=self.clock.now(), target=target, ok=ok, detail=detail)
            )

    # -- the renewal pass ---------------------------------------------------------

    def check_once(self) -> list[str]:
        """Examine every target; renew the needy ones.  Returns renewed names.

        Tests drive this directly with a :class:`ManualClock`; deployments
        run :meth:`start` for a background loop.
        """
        with self._lock:
            targets = list(self._targets.values())
        renewed: list[str] = []
        now = self.clock.now()
        for target in targets:
            if target.finished():
                self.unregister(target.name)
                continue
            credential = target.get_credential()
            if credential is None:
                continue
            remaining = credential.certificate.not_after - now
            if remaining > target.threshold:
                continue
            try:
                if target.auth_method is AuthMethod.RENEWAL:
                    fresh = self._renew_by_possession(target, credential)
                else:
                    fresh = self._fetch(self.client, target, target.secret())
                target.set_credential(fresh)
                renewed.append(target.name)
                self._record(
                    target.name,
                    True,
                    f"renewed with {fresh.seconds_remaining(self.clock):.0f}s of lifetime",
                )
                logger.info("renewed credential for %s", target.name)
            except ReproError as exc:
                self._record(target.name, False, str(exc))
                logger.warning("renewal failed for %s: %s", target.name, exc)
        return renewed

    @staticmethod
    def _fetch(client: MyProxyClient, target: RenewalTarget, secret: str) -> Credential:
        return client.get_delegation(
            username=target.username,
            passphrase=secret,
            cred_name=target.cred_name,
            lifetime=target.lifetime,
            auth_method=target.auth_method,
        )

    def _renew_by_possession(
        self, target: RenewalTarget, credential: Credential
    ) -> Credential:
        """Authenticate to the repository *with the expiring proxy* —
        possession is the secret (§6.6)."""
        if self.client_factory is None:
            raise ReproError("renewal-by-possession targets need a client_factory")
        with self._possession_lock:
            if self._possession_client is None:
                self._possession_client = self.client_factory(credential)
            self._possession_client.credential = credential
            return self._fetch(self._possession_client, target, "")

    # -- background operation --------------------------------------------------------

    def start(self) -> None:
        """Run :meth:`check_once` every ``poll_interval`` (wall-clock) seconds."""

        def _loop(stop_event: threading.Event) -> None:
            while not stop_event.wait(self.poll_interval):
                try:
                    self.check_once()
                except Exception:  # noqa: BLE001 - keep the agent alive
                    logger.exception("renewal pass failed")

        self._thread = ServiceThread(_loop, "renewal-agent")
        self._thread.start()

    def stop(self) -> None:
        """Stop the background loop and close the possession client's
        kept channel."""
        if self._thread is not None:
            self._thread.stop()
            self._thread = None
        if self._possession_client is not None:
            self._possession_client.close()
