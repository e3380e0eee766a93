"""Exception hierarchy shared by every layer of the reproduction.

The hierarchy mirrors the failure domains of the original system:

- :class:`CredentialError` / :class:`ValidationError` / :class:`ExpiredError`
  — PKI-level failures (bad chain, bad signature, lifetime exceeded).
- :class:`TransportError` / :class:`ProtocolError` — wire-level failures
  (handshake rejected, malformed message).
- :class:`AuthenticationError` / :class:`AuthorizationError` — the two
  distinct refusals the MyProxy server can issue: *you are not who you say*
  vs *you are not allowed to do that* (the paper's two ACLs, §5.1).
- :class:`PolicyError` — local policy refusals (weak pass phrase, lifetime
  above the server cap; §4.1).
"""

from __future__ import annotations

import math


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ReproError):
    """A configuration file or parameter set is invalid."""


class CredentialError(ReproError):
    """A credential is malformed, incomplete or unusable."""


class ValidationError(CredentialError):
    """A certificate or certificate chain failed validation."""


class ExpiredError(ValidationError):
    """A certificate, proxy or session is past its lifetime."""


class RevokedError(ValidationError):
    """A certificate has been revoked by its CA."""


class TransportError(ReproError):
    """The secure channel failed (handshake, record layer, or socket)."""


class HandshakeError(TransportError):
    """The mutual-authentication handshake was rejected."""


class IntegrityError(TransportError):
    """A record failed authentication (tampering or replay on the wire)."""


class ProtocolError(ReproError):
    """A peer sent a message that violates the application protocol."""


class DeadlineExceededError(TransportError):
    """A client operation ran out its end-to-end deadline.

    Raised by the client's resilience guard (:mod:`repro.cluster.resilience`)
    before a dial or sleep that would start after the deadline — the
    operation may have partially retried, but no further attempts follow.
    """


class RetryBudgetExhaustedError(TransportError):
    """The client's shared retry budget is empty; the operation fails fast.

    A drained token bucket means this client has recently burned many
    extra dials (retries, failovers, busy redials) — almost certainly
    into a degraded cluster.  Failing promptly sheds the retry storm.
    """


class ServerBusyError(ReproError):
    """The server shed this request under load and named a retry time.

    Deliberately *not* a :class:`TransportError`: a busy reply is an
    authoritative, healthy answer from a live server — clients must honor
    ``retry_after`` against the *same* node rather than failing over, or a
    partially overloaded cluster stampedes its remaining members.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = max(float(retry_after), 0.0)


def busy_hint(value) -> float:
    """A busy notice's or reply's ``RETRY_AFTER`` (the handshake's notice,
    GSI text or HTTP JSON): finite and non-negative, or a
    :class:`ProtocolError` before any client sleeps on it."""
    try:
        seconds = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError("busy response needs a RETRY_AFTER") from exc
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ProtocolError("RETRY_AFTER must be finite and non-negative")
    return seconds


class AuthenticationError(ReproError):
    """The presented identity proof (pass phrase, OTP, ticket) is wrong."""


class AuthorizationError(ReproError):
    """An authenticated party asked for something its ACLs do not allow."""


class PolicyError(ReproError):
    """A request violates local policy (pass-phrase rules, lifetime caps)."""


class RepositoryError(ReproError):
    """The credential repository storage layer failed."""


class NotFoundError(RepositoryError):
    """No such credential / user in the repository."""

