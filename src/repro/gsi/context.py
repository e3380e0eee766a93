"""The per-connection security context a GSI service works with.

Bundles the authenticated peer identity with the channel it arrived on and
the service's authorization configuration, and provides the checks every
Grid service in this reproduction performs before serving a request:

- gridmap resolution to a local account;
- the classic GSI *limited proxy* rule (a gatekeeper refuses job submission
  from limited proxies, while data services accept them);
- the §6.5 restriction check.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gsi.gridmap import GridMap
from repro.pki.proxy import ProxyType
from repro.pki.validation import ValidatedIdentity
from repro.transport.channel import SecureChannel
from repro.util.errors import AuthorizationError


@dataclass
class SecurityContext:
    """What a service knows about one authenticated connection."""

    channel: SecureChannel
    peer: ValidatedIdentity
    service_name: str

    def local_user(self, gridmap: GridMap) -> str:
        """Resolve the peer to a local account or raise."""
        return gridmap.lookup(self.peer.identity)

    def require_full_proxy_or_eec(self, operation: str) -> None:
        """Refuse limited proxies, as the GRAM gatekeeper did."""
        if self.peer.proxy_type is ProxyType.LIMITED:
            raise AuthorizationError(
                f"{self.service_name}: limited proxies may not perform "
                f"{operation!r}"
            )

    def require_permitted(self, operation: str) -> None:
        """Enforce §6.5 restrictions carried in the peer's proxy chain."""
        if not self.peer.permits(operation, self.service_name):
            raise AuthorizationError(
                f"{self.service_name}: the presented credential is restricted "
                f"and does not permit {operation!r} here"
            )

    def authorize(self, operation: str, *, allow_limited: bool = True) -> None:
        """The standard pre-dispatch check bundle."""
        if not allow_limited:
            self.require_full_proxy_or_eec(operation)
        self.require_permitted(operation)
