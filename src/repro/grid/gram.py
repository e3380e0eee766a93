"""A GRAM-like job-submission service (§2.5, §6.6).

Models the Globus resource manager the paper's flows run through:

- job submission requires GSI authentication, a gridmap entry, and a
  **full** proxy (the classic gatekeeper refuses limited proxies — the
  whole reason the limited/full distinction exists);
- the submitter *delegates* a proxy to the job (§2.4), which the job later
  uses to authenticate onward — here, to store its result in the
  mass-storage service with the user's identity (chained use of delegated
  credentials, §2.4/§2.5);
- jobs are simulated long-running computations against the service clock:
  they complete when their simulated duration elapses, and they **fail if
  their delegated credential expires first** — precisely the §6.6 problem
  that MyProxy-backed renewal (:mod:`repro.core.renewal`) solves via the
  ``refresh`` operation.

Job state machine::

    ACTIVE --(duration elapses, credential valid)--> DONE
    ACTIVE --(credential expires first)-----------> FAILED
    ACTIVE --(cancel)----------------------------> CANCELLED
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass, field

from repro.grid.service import GsiService, ServiceClient, recv_json, send_json
from repro.grid.storage import StorageClient
from repro.gsi.context import SecurityContext
from repro.pki.credentials import Credential
from repro.transport.channel import SecureChannel
from repro.transport.delegation import accept_delegation, delegate_credential
from repro.util.errors import (
    AuthorizationError,
    NotFoundError,
    PolicyError,
    ProtocolError,
    ReproError,
)
from repro.util.logging import get_logger

logger = get_logger("grid.gram")


class JobState(str, enum.Enum):
    PENDING = "pending"  # queued, waiting for an execution slot
    ACTIVE = "active"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class JobSpec:
    """What to run.  ``duration`` is simulated seconds of computation."""

    kind: str = "compute"  # "compute" | "compute-store"
    duration: float = 60.0
    output_path: str = "result.dat"
    output_size: int = 1024

    def to_payload(self) -> dict:
        return {
            "kind": self.kind,
            "duration": self.duration,
            "output_path": self.output_path,
            "output_size": self.output_size,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> JobSpec:
        try:
            spec = cls(
                kind=str(payload.get("kind", "compute")),
                duration=float(payload.get("duration", 60.0)),
                output_path=str(payload.get("output_path", "result.dat")),
                output_size=int(payload.get("output_size", 1024)),
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad job spec: {exc}") from exc
        if spec.kind not in ("compute", "compute-store"):
            raise ProtocolError(f"unknown job kind {spec.kind!r}")
        if spec.duration <= 0 or spec.output_size < 0:
            raise ProtocolError("job duration must be positive, size non-negative")
        return spec


@dataclass
class JobRecord:
    """Server-side state of one job."""

    job_id: str
    owner_dn: str
    local_user: str
    spec: JobSpec
    submitted_at: float
    finish_time: float
    credential: Credential | None
    state: JobState = JobState.ACTIVE
    detail: str = ""
    renewals: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def public_view(self, now: float) -> dict:
        with self._lock:
            remaining = (
                self.spec.duration
                if self.finish_time == float("inf")
                else max(self.finish_time - now, 0.0)
            )
            return {
                "job_id": self.job_id,
                "state": self.state.value,
                "detail": self.detail,
                "kind": self.spec.kind,
                "remaining": remaining,
                "renewals": self.renewals,
                "credential_seconds_left": (
                    self.credential.certificate.not_after - now
                    if self.credential is not None
                    else None
                ),
            }


class GramService(GsiService):
    """The gatekeeper + job manager."""

    def __init__(
        self,
        *args,
        storage_target=None,
        require_delegation: bool = True,
        max_slots: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.storage_target = storage_target
        self.require_delegation = require_delegation
        #: Execution slots (cluster nodes).  ``None`` = unlimited; with a
        #: limit, excess submissions queue FIFO in PENDING — and their
        #: delegated proxies keep aging while they wait, which is how queue
        #: time eats credential lifetime in real deployments.
        self.max_slots = max_slots
        self._jobs: dict[str, JobRecord] = {}
        self._jobs_lock = threading.Lock()
        self._ids = itertools.count(1)

    # -- inspection -----------------------------------------------------------

    def job(self, job_id: str) -> JobRecord:
        with self._jobs_lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise NotFoundError(f"no job {job_id!r}")
        return record

    def jobs(self) -> list[JobRecord]:
        with self._jobs_lock:
            return list(self._jobs.values())

    # -- dispatch -----------------------------------------------------------

    def dispatch(
        self, ctx: SecurityContext, request: dict, channel: SecureChannel
    ) -> dict:
        op = request.get("op")
        handlers = {
            "submit": self._op_submit,
            "status": self._op_status,
            "cancel": self._op_cancel,
            "refresh": self._op_refresh,
            "list": self._op_list,
        }
        if op not in handlers:
            raise ProtocolError(f"unknown GRAM operation {op!r}")
        return handlers[op](ctx, request, channel)

    def _op_submit(
        self, ctx: SecurityContext, request: dict, channel: SecureChannel
    ) -> dict:
        # The gatekeeper rule: no job submission with a limited proxy.
        ctx.authorize("submit_job", allow_limited=False)
        local_user = ctx.local_user(self.gridmap)
        spec = JobSpec.from_payload(request.get("spec", {}))

        credential: Credential | None = None
        if request.get("delegate", True):
            # Tell the client all checks passed before it starts the
            # delegation sub-protocol (so refusals arrive as clean JSON).
            send_json(channel, {"ok": True, "proceed": "delegate"})
            credential = accept_delegation(channel, key_source=self.key_source, clock=self.clock)
            if credential.identity != ctx.peer.identity:
                raise AuthorizationError(
                    "delegated credential does not match the submitting identity"
                )
        elif self.require_delegation:
            raise PolicyError("this GRAM requires delegation at submit time")

        now = self.clock.now()
        job_id = f"job-{next(self._ids):05d}"
        with self._jobs_lock:
            active = sum(
                1 for r in self._jobs.values() if r.state is JobState.ACTIVE
            )
            runs_now = self.max_slots is None or active < self.max_slots
            record = JobRecord(
                job_id=job_id,
                owner_dn=str(ctx.peer.identity),
                local_user=local_user,
                spec=spec,
                submitted_at=now,
                finish_time=(now + spec.duration) if runs_now else float("inf"),
                credential=credential,
                state=JobState.ACTIVE if runs_now else JobState.PENDING,
                detail="" if runs_now else "queued for an execution slot",
            )
            self._jobs[job_id] = record
        logger.info(
            "submitted %s for %s (%.0fs, %s)",
            job_id, local_user, spec.duration, record.state.value,
        )
        return {"ok": True, "job_id": job_id, "state": record.state.value,
                "finish_time": record.finish_time}

    def _owned_job(self, ctx: SecurityContext, request: dict) -> JobRecord:
        record = self.job(str(request.get("job_id", "")))
        if record.owner_dn != str(ctx.peer.identity):
            raise AuthorizationError("not your job")
        return record

    def _op_status(
        self, ctx: SecurityContext, request: dict, channel: SecureChannel
    ) -> dict:
        record = self._owned_job(ctx, request)
        return {"ok": True, **record.public_view(self.clock.now())}

    def _op_cancel(
        self, ctx: SecurityContext, request: dict, channel: SecureChannel
    ) -> dict:
        record = self._owned_job(ctx, request)
        with record._lock:
            if record.state in (JobState.ACTIVE, JobState.PENDING):
                record.state = JobState.CANCELLED
                record.detail = "cancelled by owner"
        return {"ok": True, "state": record.state.value}

    def _op_refresh(
        self, ctx: SecurityContext, request: dict, channel: SecureChannel
    ) -> dict:
        """§6.6: replace a running job's credential with a fresh delegation."""
        refreshable = (JobState.ACTIVE, JobState.PENDING)
        record = self._owned_job(ctx, request)
        with record._lock:
            if record.state not in refreshable:
                raise PolicyError(f"job is {record.state.value}, not refreshable")
        send_json(channel, {"ok": True, "proceed": "delegate"})
        fresh = accept_delegation(channel, key_source=self.key_source, clock=self.clock)
        if fresh.identity != ctx.peer.identity:
            raise AuthorizationError("refreshed credential does not match the job owner")
        with record._lock:
            if record.state not in refreshable:
                raise PolicyError(f"job is {record.state.value}, not refreshable")
            record.credential = fresh
            record.renewals += 1
        seconds = fresh.certificate.not_after - self.clock.now()
        logger.info("refreshed credential for %s (%.0fs left)", record.job_id, seconds)
        return {"ok": True, "credential_seconds_left": seconds}

    def _op_list(
        self, ctx: SecurityContext, request: dict, channel: SecureChannel
    ) -> dict:
        now = self.clock.now()
        mine = [
            r.public_view(now)
            for r in self.jobs()
            if r.owner_dn == str(ctx.peer.identity)
        ]
        return {"ok": True, "jobs": mine}

    # -- the simulated job engine ------------------------------------------------

    def sweep(self, now: float) -> None:
        """The listener's tick (see :mod:`repro.transport.listener`)."""
        self.poll_jobs()

    def poll_jobs(self) -> list[str]:
        """Advance every active job against the clock; return changed ids.

        Over TCP the service's listener calls this once per tick
        (:meth:`sweep`), with no client asking; pipe testbeds have no
        listener, so tests call it themselves.
        """
        changed: list[str] = []
        now = self.clock.now()
        for record in self.jobs():
            with record._lock:
                if record.state not in (JobState.ACTIVE, JobState.PENDING):
                    continue
                credential = record.credential
                if credential is not None and credential.certificate.not_after <= now:
                    where = (
                        "in the queue" if record.state is JobState.PENDING
                        else f"{now - credential.certificate.not_after:.0f}s before completion"
                    )
                    record.state = JobState.FAILED
                    record.detail = f"delegated proxy expired {where}"
                    changed.append(record.job_id)
                    continue
                if record.state is JobState.PENDING or now < record.finish_time:
                    continue
                # Completion: a compute-store job authenticates onward to
                # mass storage *as the user* with its delegated credential.
                try:
                    self._finish(record)
                    record.state = JobState.DONE
                    record.detail = "completed"
                except ReproError as exc:
                    record.state = JobState.FAILED
                    record.detail = f"completion failed: {exc}"
                changed.append(record.job_id)
        changed.extend(self._activate_pending(now))
        return changed

    def _activate_pending(self, now: float) -> list[str]:
        """Promote queued jobs into freed slots, oldest first."""
        if self.max_slots is None:
            return []
        activated: list[str] = []
        with self._jobs_lock:
            records = sorted(self._jobs.values(), key=lambda r: r.job_id)
            active = sum(1 for r in records if r.state is JobState.ACTIVE)
            for record in records:
                if active >= self.max_slots:
                    break
                with record._lock:
                    if record.state is not JobState.PENDING:
                        continue
                    record.state = JobState.ACTIVE
                    record.finish_time = now + record.spec.duration
                    record.detail = ""
                active += 1
                activated.append(record.job_id)
        return activated

    def _finish(self, record: JobRecord) -> None:
        if record.spec.kind != "compute-store":
            return
        if record.credential is None:
            raise PolicyError("compute-store job has no credential to reach storage")
        if self.storage_target is None:
            raise PolicyError("this GRAM has no storage service configured")
        payload = (f"output of {record.job_id} for {record.local_user}\n").encode()
        payload += b"\0" * max(record.spec.output_size - len(payload), 0)
        with StorageClient(
            self.storage_target, record.credential, self.validator
        ) as storage:
            storage.store(record.spec.output_path, payload)


class GramClient(ServiceClient):
    """Typed operations against a :class:`GramService`."""

    def submit(
        self,
        spec: JobSpec,
        *,
        delegate_from: Credential | None = None,
        lifetime: float | None = None,
        clock=None,
    ) -> str:
        """Submit a job, delegating a proxy for it (§2.5's typical session)."""
        from repro.util.clock import SYSTEM_CLOCK

        channel = self.channel
        send_json(
            channel,
            {
                "op": "submit",
                "spec": spec.to_payload(),
                "delegate": delegate_from is not None,
            },
        )
        if delegate_from is not None:
            go = recv_json(channel)
            if not go.get("ok", False):
                raise AuthorizationError(f"submit refused: {go.get('error')}")
            kwargs = {}
            if lifetime is not None:
                kwargs["lifetime"] = lifetime
            delegate_credential(
                channel, delegate_from, clock=clock or SYSTEM_CLOCK, **kwargs
            )
        response = recv_json(channel)
        if not response.get("ok", False):
            raise AuthorizationError(f"submit refused: {response.get('error')}")
        return str(response["job_id"])

    def status(self, job_id: str) -> dict:
        return self.call({"op": "status", "job_id": job_id})

    def cancel(self, job_id: str) -> str:
        return str(self.call({"op": "cancel", "job_id": job_id})["state"])

    def refresh(
        self, job_id: str, credential: Credential, *, lifetime: float | None = None, clock=None
    ) -> float:
        """Delegate a fresh proxy to a running job (§6.6)."""
        from repro.util.clock import SYSTEM_CLOCK

        channel = self.channel
        send_json(channel, {"op": "refresh", "job_id": job_id})
        go = recv_json(channel)
        if not go.get("ok", False):
            raise AuthorizationError(f"refresh refused: {go.get('error')}")
        kwargs = {}
        if lifetime is not None:
            kwargs["lifetime"] = lifetime
        delegate_credential(channel, credential, clock=clock or SYSTEM_CLOCK, **kwargs)
        response = recv_json(channel)
        if not response.get("ok", False):
            raise AuthorizationError(f"refresh refused: {response.get('error')}")
        return float(response["credential_seconds_left"])

    def list_jobs(self) -> list[dict]:
        return list(self.call({"op": "list"})["jobs"])
