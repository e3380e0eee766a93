"""The Condor-G-style job manager (§6.6).

The manager runs where the user's jobs are launched from.  For every
managed job it keeps a local copy of the credential it last delegated, and
on each :meth:`CondorGManager.tick`:

- ``NOTIFY`` mode — if a job's proxy is about to expire, record a
  notification (the original Condor-G "e-mail the user" behaviour) and do
  nothing else.  If the user ignores it, the job fails when GRAM notices
  the expiry — the failure the paper wants to engineer away.
- ``RENEW`` mode — a :class:`~repro.core.renewal.RenewalAgent` fetches a
  fresh proxy from the MyProxy repository (consuming one OTP word if the
  entry uses OTP) and pushes it into the running job with GRAM's
  ``refresh`` operation.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

from repro.core.client import MyProxyClient
from repro.core.protocol import DEFAULT_CRED_NAME, AuthMethod
from repro.core.renewal import RenewalAgent, RenewalTarget, SecretProvider
from repro.grid.gram import GramClient, JobSpec
from repro.pki.credentials import Credential
from repro.pki.validation import ChainValidator
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import ReproError
from repro.util.logging import get_logger

logger = get_logger("condor.manager")


class ManagerMode(str, enum.Enum):
    NOTIFY = "notify"  # legacy Condor-G behaviour: tell the user, hope
    RENEW = "renew"  # the paper's proposal: MyProxy-backed auto-renewal


@dataclass
class ManagedJob:
    """Book-keeping for one submitted job."""

    job_id: str
    username: str
    cred_name: str
    secret: SecretProvider
    auth_method: AuthMethod
    credential: Credential  # local copy of what the job currently holds
    notified: bool = False


@dataclass
class Notification:
    """NOTIFY-mode message to the user (the paper's e-mail)."""

    at: float
    job_id: str
    message: str


class CondorGManager:
    """Submits jobs through GRAM and keeps their credentials alive."""

    def __init__(
        self,
        *,
        gram_target,
        myproxy_client: MyProxyClient,
        credential: Credential,
        validator: ChainValidator,
        clock: Clock = SYSTEM_CLOCK,
        mode: ManagerMode = ManagerMode.RENEW,
        renewal_threshold: float = 600.0,
        delegated_lifetime: float = 3600.0,
        myproxy_client_factory=None,
    ) -> None:
        self.gram_target = gram_target
        self.myproxy = myproxy_client
        self.credential = credential  # the manager's own Grid identity
        self.validator = validator
        self.clock = clock
        self.mode = mode
        self.renewal_threshold = renewal_threshold
        self.delegated_lifetime = delegated_lifetime
        #: Needed for possession-based renewals (AuthMethod.RENEWAL): build
        #: a repository client authenticated as a given credential.
        self.agent = RenewalAgent(
            myproxy_client, clock=clock, client_factory=myproxy_client_factory
        )
        self._jobs: dict[str, ManagedJob] = {}
        self._lock = threading.Lock()
        self.notifications: list[Notification] = []

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        *,
        username: str,
        secret: SecretProvider = lambda: "",
        cred_name: str = DEFAULT_CRED_NAME,
        auth_method: AuthMethod = AuthMethod.PASSPHRASE,
        renew_by_possession: bool = False,
    ) -> str:
        """Fetch a proxy from MyProxy, submit the job, start managing it.

        With ``renew_by_possession=True`` the *initial* retrieval uses the
        given secret once, and every subsequent renewal authenticates with
        the job's current proxy (AuthMethod.RENEWAL) — the manager holds no
        long-lived user secret at all.
        """
        proxy = self.myproxy.get_delegation(
            username=username,
            passphrase=secret(),
            cred_name=cred_name,
            lifetime=self.delegated_lifetime,
            auth_method=auth_method,
        )
        # GRAM requires the delegated credential to match the submitting
        # identity, so the manager authenticates *as the user* with the
        # proxy it just retrieved (the Condor-G pattern).
        with GramClient(self.gram_target, proxy, self.validator) as gram:
            job_id = gram.submit(spec, delegate_from=proxy, clock=self.clock)
        renew_method = AuthMethod.RENEWAL if renew_by_possession else auth_method
        renew_secret = (lambda: "") if renew_by_possession else secret
        job = ManagedJob(
            job_id=job_id,
            username=username,
            cred_name=cred_name,
            secret=renew_secret,
            auth_method=renew_method,
            credential=proxy,
        )
        with self._lock:
            self._jobs[job_id] = job
        if self.mode is ManagerMode.RENEW:
            self.agent.register(
                RenewalTarget(
                    name=job_id,
                    get_credential=lambda j=job: j.credential,
                    set_credential=lambda fresh, j=job: self._apply_renewal(j, fresh),
                    username=username,
                    secret=renew_secret,
                    cred_name=cred_name,
                    auth_method=renew_method,
                    lifetime=self.delegated_lifetime,
                    threshold=self.renewal_threshold,
                    finished=lambda j=job: self._job_finished(j),
                )
            )
        logger.info("managing %s for %s in %s mode", job_id, username, self.mode.value)
        return job_id

    # -- renewal plumbing ---------------------------------------------------------

    def _apply_renewal(self, job: ManagedJob, fresh: Credential) -> None:
        with GramClient(self.gram_target, fresh, self.validator) as gram:
            gram.refresh(job.job_id, fresh, clock=self.clock)
        job.credential = fresh

    def _job_finished(self, job: ManagedJob) -> bool:
        try:
            return self.status(job.job_id)["state"] != "active"
        except ReproError:
            return True

    # -- the periodic pass ----------------------------------------------------------

    def tick(self) -> list[str]:
        """One management pass; returns job ids acted upon."""
        if self.mode is ManagerMode.RENEW:
            return self.agent.check_once()
        acted: list[str] = []
        now = self.clock.now()
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            if job.notified or self._job_finished(job):
                continue
            remaining = job.credential.certificate.not_after - now
            if remaining <= self.renewal_threshold:
                self.notifications.append(
                    Notification(
                        at=now,
                        job_id=job.job_id,
                        message=(
                            f"proxy for {job.job_id} expires in {remaining:.0f}s; "
                            "please refresh your credentials"
                        ),
                    )
                )
                job.notified = True
                acted.append(job.job_id)
        return acted

    # -- passthroughs ----------------------------------------------------------------

    def status(self, job_id: str) -> dict:
        with self._lock:
            job = self._jobs.get(job_id)
        credential = job.credential if job is not None else self.credential
        with GramClient(self.gram_target, credential, self.validator) as gram:
            return gram.status(job_id)
