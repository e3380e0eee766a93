"""Repository impersonation (§5.1).

"MyProxy clients also require mutual authentication of the repository
through the use of Grid credentials held by the server.  This prevents an
attacker from impersonating the repository in order to steal credentials
or authentication information."

:class:`FakeRepository` is a complete, protocol-correct MyProxy server —
except its host credential comes from the *attacker's own CA*.  Pointing a
real client at it must fail in the handshake, before a single protocol
byte (let alone a pass phrase) is sent.
"""

from __future__ import annotations

from repro.core.repository import MemoryRepository
from repro.core.server import MyProxyServer
from repro.pki.ca import CertificateAuthority
from repro.pki.names import DistinguishedName
from repro.pki.validation import ChainValidator
from repro.util.clock import SYSTEM_CLOCK, Clock


class FakeRepository:
    """An attacker-run MyProxy clone with untrusted credentials.

    The fake *accepts any client chain* (the attacker gladly talks to
    everyone) by trusting the victim's CA certificate, which is public.
    What it cannot forge is a host credential that chains to a CA the
    victim trusts.
    """

    def __init__(
        self,
        victim_ca_certificate,
        *,
        clock: Clock = SYSTEM_CLOCK,
        key_bits: int = 1024,
    ) -> None:
        self.evil_ca = CertificateAuthority(
            DistinguishedName.parse("/O=Evil/CN=Totally Legit CA"),
            key_bits=key_bits,
            clock=clock,
        )
        credential = self.evil_ca.issue_host_credential(
            "myproxy0.example.org",  # claims the real repository's name
            key_bits=key_bits,
        )
        validator = ChainValidator(
            [self.evil_ca.certificate, victim_ca_certificate], clock=clock
        )
        self.server = MyProxyServer(
            credential, validator, repository=MemoryRepository(), clock=clock
        )
        #: Pass phrases the fake managed to harvest (must stay empty).
        self.harvested: list[str] = []

    def target(self):
        """A link factory victims can be pointed at."""
        return self.server.connect
