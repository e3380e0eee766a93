"""The Grid Portal application (§3, §4.3, §5.2, Figure 3).

Security behaviour reproduced from the paper:

- logins are refused on plain HTTP when ``https_only`` is set (§5.2);
- the portal holds the user's delegated proxy only for the lifetime of the
  web session, keyed by the session cookie ("map the credentials to the
  user's web session", §5.2);
- "the operation of logging out of the portal deletes the user's delegated
  credential on the portal.  If a user forgets to log off, the credential
  will expire at the lifetime specified when requested from the MyProxy
  service" (§4.3) — expiry is checked on every use, and session destruction
  always wipes the credential map entry;
- the portal authenticates to the repository with *its own* credential
  (step 2 of Figure 3), which §5.2 notes is kept unencrypted so the service
  runs unattended;
- a portal "configured to use more than one" repository lets the user pick
  (§4.3 / §3.3 scalability), and one portal instance serves many users.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.client import MyProxyClient
from repro.core.protocol import AuthMethod
from repro.grid.gram import GramClient, JobSpec
from repro.grid.storage import StorageClient
from repro.pki.credentials import Credential
from repro.pki.keys import KeySource
from repro.pki.validation import ChainValidator
from repro.portal import pages
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import AuthenticationError, ReproError
from repro.util.logging import get_logger
from repro.web.http11 import HttpResponse
from repro.web.server import WebContext, WebServer

logger = get_logger("portal")


@dataclass
class PortalConfig:
    """Deployment configuration for one portal."""

    name: str
    #: repository label → connect target ((host, port) or link factory).
    myproxy_targets: dict = field(default_factory=dict)
    gram_target: object = None
    storage_target: object = None
    #: §5.2: refuse logins unless the connection is SSL-secured.
    https_only: bool = True
    session_ttl: float = 3600.0
    default_proxy_lifetime: float = 2 * 3600.0


class GridPortal:
    """A web portal that acts on the Grid with MyProxy-delegated proxies."""

    def __init__(
        self,
        config: PortalConfig,
        credential: Credential,
        validator: ChainValidator,
        *,
        clock: Clock = SYSTEM_CLOCK,
        key_source: KeySource | None = None,
    ) -> None:
        if not config.myproxy_targets:
            raise ValueError("a portal needs at least one MyProxy repository")
        self.config = config
        self.credential = credential  # the portal's own Grid identity
        self.validator = validator
        self.clock = clock
        self.key_source = key_source
        self.web = WebServer(
            config.name,
            clock=clock,
            session_ttl=config.session_ttl,
            credential=credential,
            validator=validator,
        )
        self._creds_lock = threading.Lock()
        #: session id → (repository label, the user's delegated proxy).
        self._session_credentials: dict[str, tuple[str, Credential]] = {}
        self.web.sessions.on_destroy.append(self._wipe_credential)
        self._register_routes()

    # ------------------------------------------------------------------
    # credential ↔ session mapping (§5.2)
    # ------------------------------------------------------------------

    def _wipe_credential(self, session_id: str) -> None:
        with self._creds_lock:
            self._session_credentials.pop(session_id, None)

    def _store_credential(self, session_id: str, repo: str, credential: Credential) -> None:
        with self._creds_lock:
            self._session_credentials[session_id] = (repo, credential)

    def _credential_for(self, ctx: WebContext) -> tuple[str, Credential] | None:
        """The live proxy for this session, or None (absent/expired)."""
        with self._creds_lock:
            held = self._session_credentials.get(ctx.session.session_id)
        if held is None:
            return None
        repo, credential = held
        if credential.seconds_remaining(self.clock) <= 0:
            # §4.3: forgotten logins die with their proxy.
            self._wipe_credential(ctx.session.session_id)
            return None
        return repo, credential

    def credential_for_session(self, session_id: str) -> Credential | None:
        """The live delegated proxy bound to ``session_id``, or None.

        The federation gateway resolves redeemed SSO assertions through
        this: if the web session was destroyed (logout, expiry, admin
        revocation) the proxy is already wiped and redemption fails —
        revoking the session revokes the federation path too.
        """
        with self._creds_lock:
            held = self._session_credentials.get(session_id)
        if held is None:
            return None
        _repo, credential = held
        if credential.seconds_remaining(self.clock) <= 0:
            self._wipe_credential(session_id)
            return None
        return credential

    def held_credentials(self) -> dict[str, tuple[str, Credential]]:
        """Snapshot of every delegated proxy currently on this portal.

        This is exactly what an attacker who compromises the portal host
        gets (§5.1) — the compromised-portal experiment reads it.
        """
        with self._creds_lock:
            return dict(self._session_credentials)

    def active_credential_count(self) -> int:
        return len(self.held_credentials())

    # ------------------------------------------------------------------
    # Grid plumbing
    # ------------------------------------------------------------------

    def _myproxy_client(self, repository: str) -> MyProxyClient:
        target = self.config.myproxy_targets.get(repository)
        if target is None:
            raise AuthenticationError(f"unknown repository {repository!r}")
        return MyProxyClient(
            target,
            self.credential,
            self.validator,
            clock=self.clock,
            key_source=self.key_source,
        )

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    def _register_routes(self) -> None:
        self.web.add_route("GET", "/", self._home)
        self.web.add_route("POST", "/login", self._login)
        self.web.add_route("GET", "/portal", self._dashboard)
        self.web.add_route("GET", "/jobs", self._jobs)
        self.web.add_route("POST", "/jobs", self._submit_job)
        self.web.add_route("POST", "/jobs/cancel", self._cancel_job)
        self.web.add_route("GET", "/files", self._files)
        self.web.add_route("POST", "/files", self._store_file)
        self.web.add_route("GET", "/files/download", self._download_file)
        self.web.add_route("POST", "/logout", self._logout)

    def _home(self, ctx: WebContext) -> HttpResponse:
        if self._credential_for(ctx) is not None:
            return HttpResponse.redirect("/portal")
        insecure = self.config.https_only and not ctx.secure
        return HttpResponse.html(
            pages.login_page(
                portal_name=self.config.name,
                repositories=sorted(self.config.myproxy_targets),
                insecure=insecure,
            )
        )

    def _login(self, ctx: WebContext) -> HttpResponse:
        # §5.2: never accept a pass phrase over unencrypted HTTP.
        if self.config.https_only and not ctx.secure:
            return HttpResponse.error(
                403, "logins require an SSL-secured connection (HTTPS)"
            )
        form = ctx.request.form
        username = form.get("username", "").strip()
        passphrase = form.get("passphrase", "")
        cred_name = form.get("cred_name", "").strip() or "default"
        repository = form.get("repository") or sorted(self.config.myproxy_targets)[0]
        try:
            lifetime = float(form.get("lifetime_hours", "2")) * 3600.0
        except ValueError:
            lifetime = self.config.default_proxy_lifetime
        try:
            auth_method = AuthMethod(form.get("auth_method", "passphrase"))
        except ValueError:
            auth_method = AuthMethod.PASSPHRASE
        if not username or not passphrase:
            return HttpResponse.html(
                pages.login_page(
                    portal_name=self.config.name,
                    repositories=sorted(self.config.myproxy_targets),
                    error="user name and pass phrase are required",
                ),
                status=400,
            )
        try:
            # Figure 3, steps 2 and 3.
            with self._myproxy_client(repository) as client:
                proxy = client.get_delegation(
                    username=username,
                    passphrase=passphrase,
                    lifetime=lifetime,
                    cred_name=cred_name,
                    auth_method=auth_method,
                )
        except ReproError as exc:
            logger.info("login failed for %r: %s", username, exc)
            return HttpResponse.html(
                pages.login_page(
                    portal_name=self.config.name,
                    repositories=sorted(self.config.myproxy_targets),
                    error=str(exc),
                ),
                status=401,
            )
        self._store_credential(ctx.session.session_id, repository, proxy)
        ctx.session.data["username"] = username
        ctx.session.data["repository"] = repository
        logger.info("user %r logged in via %s", username, repository)
        return HttpResponse.redirect("/portal")

    def _require_login(self, ctx: WebContext) -> tuple[str, Credential] | HttpResponse:
        held = self._credential_for(ctx)
        if held is None:
            return HttpResponse.redirect("/")
        return held

    def _dashboard(self, ctx: WebContext) -> HttpResponse:
        held = self._require_login(ctx)
        if isinstance(held, HttpResponse):
            return held
        repo, credential = held
        return HttpResponse.html(
            pages.dashboard_page(
                portal_name=self.config.name,
                username=str(ctx.session.data.get("username", "")),
                identity=str(credential.identity),
                proxy_seconds_left=credential.seconds_remaining(self.clock),
                repository=repo,
            )
        )

    def _jobs(self, ctx: WebContext) -> HttpResponse:
        held = self._require_login(ctx)
        if isinstance(held, HttpResponse):
            return held
        _repo, credential = held
        with GramClient(self.config.gram_target, credential, self.validator) as gram:
            jobs = gram.list_jobs()
        return HttpResponse.html(
            pages.jobs_page(portal_name=self.config.name, jobs=jobs)
        )

    def _submit_job(self, ctx: WebContext) -> HttpResponse:
        held = self._require_login(ctx)
        if isinstance(held, HttpResponse):
            return held
        _repo, credential = held
        form = ctx.request.form
        try:
            spec = JobSpec(
                kind=form.get("kind", "compute"),
                duration=float(form.get("duration", "60")),
                output_path=form.get("output_path", "result.dat"),
            )
        except ValueError:
            return HttpResponse.error(400, "bad job parameters")
        with GramClient(self.config.gram_target, credential, self.validator) as gram:
            job_id = gram.submit(spec, delegate_from=credential, clock=self.clock)
            jobs = gram.list_jobs()
        return HttpResponse.html(
            pages.jobs_page(
                portal_name=self.config.name,
                jobs=jobs,
                message=f"submitted {job_id}",
            )
        )

    def _cancel_job(self, ctx: WebContext) -> HttpResponse:
        held = self._require_login(ctx)
        if isinstance(held, HttpResponse):
            return held
        _repo, credential = held
        job_id = ctx.request.form.get("job_id", "")
        with GramClient(self.config.gram_target, credential, self.validator) as gram:
            state = gram.cancel(job_id)
            jobs = gram.list_jobs()
        return HttpResponse.html(
            pages.jobs_page(
                portal_name=self.config.name, jobs=jobs,
                message=f"{job_id} is now {state}",
            )
        )

    def _download_file(self, ctx: WebContext) -> HttpResponse:
        held = self._require_login(ctx)
        if isinstance(held, HttpResponse):
            return held
        _repo, credential = held
        path = ctx.request.query.get("path", "")
        if not path:
            return HttpResponse.error(400, "a path is required")
        with StorageClient(self.config.storage_target, credential, self.validator) as storage:
            data = storage.fetch(path)
        return HttpResponse(
            status=200,
            headers=[
                ("Content-Type", "application/octet-stream"),
                ("Content-Disposition",
                 f'attachment; filename="{path.rsplit("/", 1)[-1]}"'),
            ],
            body=data,
        )

    def _files(self, ctx: WebContext) -> HttpResponse:
        held = self._require_login(ctx)
        if isinstance(held, HttpResponse):
            return held
        _repo, credential = held
        with StorageClient(self.config.storage_target, credential, self.validator) as storage:
            files = storage.list()
        return HttpResponse.html(
            pages.files_page(portal_name=self.config.name, files=files)
        )

    def _store_file(self, ctx: WebContext) -> HttpResponse:
        held = self._require_login(ctx)
        if isinstance(held, HttpResponse):
            return held
        _repo, credential = held
        form = ctx.request.form
        path = form.get("path", "").strip()
        content = form.get("content", "").encode("utf-8")
        if not path:
            return HttpResponse.error(400, "a path is required")
        with StorageClient(self.config.storage_target, credential, self.validator) as storage:
            storage.store(path, content)
            files = storage.list()
        return HttpResponse.html(
            pages.files_page(
                portal_name=self.config.name, files=files, message=f"stored {path}"
            )
        )

    def _logout(self, ctx: WebContext) -> HttpResponse:
        # §4.3: "logging out of the portal deletes the user's delegated
        # credential on the portal".
        self.web.sessions.destroy(ctx.session.session_id)
        return HttpResponse.html(pages.logged_out_page(self.config.name))
