"""Server-side policy (§4.1, §4.3, §5.1).

Two policy objects:

- :class:`PassphrasePolicy` — "both the user identity and pass phrase are
  chosen by the user, but can be tested by the repository to make sure they
  meet any local policy (e.g. the pass phrase must be a certain length,
  survive dictionary checks, etc.)" (§4.1).
- :class:`ServerPolicy` — the repository-wide knobs: the one-week default /
  maximum for credentials delegated *to* the repository, the few-hours
  default for proxies delegated *from* it (§4.3), the two ACLs (§5.1), and
  the at-rest key-derivation cost.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.gsi.acl import AccessControlList
from repro.qos.admission import DEFAULT_DEADLINE, DEFAULT_DEPTH
from repro.qos.classes import ClassMap, ServiceClass
from repro.util.errors import PolicyError

ONE_HOUR = 3600.0
ONE_DAY = 24 * ONE_HOUR
ONE_WEEK = 7 * ONE_DAY

#: Words any pass-phrase dictionary check should refuse.  Deliberately small
#: — real deployments point at a system word list; the mechanism is what the
#: paper calls for.
DEFAULT_DICTIONARY = frozenset(
    {
        "password",
        "passphrase",
        "passwort",
        "secret",
        "letmein",
        "welcome",
        "qwerty",
        "abc123",
        "123456",
        "12345678",
        "iloveyou",
        "monkey",
        "dragon",
        "master",
        "grid",
        "globus",
        "myproxy",
    }
)

_USERNAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._@-]{0,63}$")


@dataclass(frozen=True)
class PassphrasePolicy:
    """Local rules a user-chosen pass phrase must satisfy (§4.1)."""

    min_length: int = 6
    dictionary: frozenset[str] = DEFAULT_DICTIONARY
    require_non_alpha: bool = False

    def check(self, passphrase: str) -> None:
        """Raise :class:`PolicyError` unless the pass phrase is acceptable."""
        if len(passphrase) < self.min_length:
            raise PolicyError(
                f"pass phrase must be at least {self.min_length} characters"
            )
        lowered = passphrase.lower()
        if lowered in self.dictionary:
            raise PolicyError("pass phrase fails the dictionary check")
        # Also refuse trivial decorations of dictionary words ("password1").
        stripped = lowered.strip("0123456789!@#$%^&*().,;:-_ ")
        if stripped in self.dictionary:
            raise PolicyError("pass phrase is a trivially decorated dictionary word")
        if self.require_non_alpha and passphrase.isalpha():
            raise PolicyError("pass phrase must contain a non-letter character")

    def check_username(self, username: str) -> None:
        """The §4.1 user identity: short, memorable, hand-typed."""
        if not _USERNAME_RE.match(username):
            raise PolicyError(
                "user name must be 1-64 characters from [A-Za-z0-9._@-] "
                "and start with an alphanumeric"
            )


@dataclass
class ServerPolicy:
    """Repository-wide policy for a :class:`~repro.core.server.MyProxyServer`."""

    #: Longest a credential delegated *to* the repository may live.
    #: §4.3: "The maximum lifetime of credentials delegated to the
    #: repository is set by policy on the repository server, but defaults
    #: to one week."
    max_stored_lifetime: float = ONE_WEEK

    #: Longest proxy the repository will delegate *from* a stored
    #: credential, regardless of what the user allowed (§4.3: "normally on
    #: the order of a few hours").
    max_delegation_lifetime: float = 12 * ONE_HOUR

    #: Lifetime used when a GET request does not ask for one.
    default_delegation_lifetime: float = 2 * ONE_HOUR

    passphrase_policy: PassphrasePolicy = field(default_factory=PassphrasePolicy)

    #: §5.1's first ACL: "clients allowed to delegate to the repository
    #: (typically users)".
    accepted_credentials: AccessControlList = field(
        default_factory=lambda: AccessControlList.allow_all("accepted_credentials")
    )

    #: §5.1's second ACL: "clients allowed to request delegations from the
    #: repository (typically portals)".
    authorized_retrievers: AccessControlList = field(
        default_factory=lambda: AccessControlList.allow_all("authorized_retrievers")
    )

    #: PBKDF2 iterations for the stored pass-phrase verifier.  Production
    #: wants ≥100k; tests and benchmarks may lower it (an ablation knob —
    #: see bench_repository).
    kdf_iterations: int = 20_000

    #: Whether the server accepts each auth method (§6.3).
    allow_passphrase_auth: bool = True
    allow_otp_auth: bool = True
    allow_site_auth: bool = True

    #: §6.6 renewal-by-possession: server-wide gate plus an ACL of client
    #: DNs that may use it (per-credential RENEWERS lists narrow further).
    allow_renewal_auth: bool = True
    authorized_renewers: AccessControlList = field(
        default_factory=lambda: AccessControlList.allow_all("authorized_renewers")
    )

    #: Whether TRUSTROOTS may be fetched by clients with no certificate
    #: (the bootstrap/CRL-refresh case).  Trust material is public, so the
    #: default is open; every other command always requires client auth.
    allow_anonymous_trustroots: bool = True

    #: Online-guessing defense: after this many failed secret checks for
    #: one (username, cred_name) within ``lockout_window`` seconds, further
    #: attempts are refused — even correct ones — until the window drains.
    #: 0 disables lockout.  (The offline attack is priced by
    #: ``kdf_iterations``; this prices the online one.)
    max_failed_auths: int = 10
    lockout_window: float = 600.0

    #: Operations slower than this many seconds land in the server's
    #: structured slow-op log (``slow_op_threshold`` directive).  0
    #: disables the log — the default, since embedded test servers have
    #: no operator watching.
    slow_op_threshold: float = 0.0

    # -- serving-path QoS (see repro.qos) -------------------------------

    #: TCP listen backlog (``listen_backlog`` directive) — was a magic 64
    #: in ``start()``.
    listen_backlog: int = 64

    #: Per-connection socket timeout in seconds (``connection_timeout``
    #: directive) — was a magic 30.0 on every accepted socket.
    connection_timeout: float = 30.0

    #: Base per-identity admission rate, tokens (≈ conversations) per
    #: second, scaled by the identity's service-class weight.  0 disables
    #: rate limiting entirely (the default — a lone test server has no
    #: noisy neighbours).
    qos_rate: float = 0.0

    #: Base per-identity burst capacity; 0 means "auto": twice the rate,
    #: but at least 4 tokens, so short bursts ride through untouched.
    qos_burst: float = 0.0

    #: Bound on connections waiting for a worker; beyond it new arrivals
    #: are shed with a busy reply.  0 disables queueing (every arrival
    #: needing a worker that is not free is shed immediately).
    qos_queue_depth: int = DEFAULT_DEPTH

    #: Longest a connection may wait in the admission queue before it is
    #: shed rather than served stale (seconds).
    qos_queue_deadline: float = DEFAULT_DEADLINE

    #: Weighted service classes (``qos_class`` directives), resolved
    #: first-match-wins against the authenticated base identity.
    qos_classes: tuple[ServiceClass, ...] = ()

    # -- crypto hot path -------------------------------------------------

    #: Session-resumption tickets (``disable_session_tickets`` directive):
    #: repeat clients skip RSA key transport and the chain walk on
    #: reconnect.  Tickets are refused after trust-root or CRL changes,
    #: so disabling buys no extra revocation safety — only the guarantee
    #: that every connection re-runs the full handshake.
    session_tickets: bool = True

    #: How long an issued resumption ticket stays redeemable, seconds
    #: (``session_ticket_lifetime`` directive).  The encryption key under
    #: the tickets rotates at twice this interval.
    session_ticket_lifetime: float = 3600.0

    #: Size of the background one-shot keypair pool (``keypair_pool``
    #: directive).  0 — the default — generates delegation keys inline;
    #: a positive value pre-generates that many, each handed out at most
    #: once (never recycled), with inline fallback when drained.
    keypair_pool_size: int = 0

    # -- federation (repro.federation) ----------------------------------

    #: Whether this deployment participates in cross-realm federation
    #: (``federation`` directive / ``myproxy-server --federation``).
    federation_enabled: bool = False

    #: This deployment's realm name (``realm_name`` directive).  Used as
    #: the assertion issuer realm and as the audience peers mint for.
    realm_name: str = "local"

    #: Portals whose signed SSO assertions the federation gateway will
    #: redeem.  The chain still has to validate — this ACL narrows *which*
    #: validated identities may vouch for web sessions.
    federation_portals: AccessControlList = field(
        default_factory=lambda: AccessControlList.allow_all("federation_portals")
    )

    #: Cap on SSO assertion validity width (``assertion_max_lifetime``
    #: directive).  Assertions are bearer tokens; minutes, not hours.
    assertion_max_lifetime: float = 300.0

    #: Lifetime of the restricted proxy a redeemed assertion deposits in
    #: the peer realm (``federation_delegation_lifetime`` directive).
    federation_delegation_lifetime: float = ONE_HOUR

    def qos_class_map(self) -> ClassMap:
        return ClassMap(self.qos_classes)

    def effective_qos_burst(self) -> float:
        """The configured burst, or the auto default derived from the rate."""
        if self.qos_burst > 0:
            return self.qos_burst
        return max(2.0 * self.qos_rate, 4.0)

    def clamp_delegation_lifetime(self, requested: float) -> float:
        """Resolve a GET lifetime request against server policy."""
        if requested <= 0:
            return self.default_delegation_lifetime
        return min(requested, self.max_delegation_lifetime)

    def check_stored_lifetime(self, lifetime: float) -> None:
        if lifetime <= 0:
            raise PolicyError("stored-credential lifetime must be positive")
        if lifetime > self.max_stored_lifetime:
            raise PolicyError(
                f"stored-credential lifetime {lifetime:.0f}s exceeds the "
                f"server maximum {self.max_stored_lifetime:.0f}s"
            )
