"""The secure channel substrate (§2.2) and GSI delegation (§2.4).

GSI "uses Secure Socket Layer (SSL) to implement authentication, message
integrity and message privacy".  Stock TLS stacks cannot authenticate GSI
legacy proxy chains (a proxy's issuer is an end-entity certificate, which
classic path validation rejects), which is exactly why Globus shipped its
own verification callbacks.  This package therefore implements the channel
itself, SSL-3-style:

- :mod:`repro.transport.links` — byte-stream links (a TCP or in-process
  socket, or an in-memory pipe) with length-prefixed framing;
- :mod:`repro.transport.kdf` — transcript hashing and the key schedule;
- :mod:`repro.transport.records` — the AES-GCM record layer with per-record
  sequence numbers (integrity + privacy + in-connection replay protection);
- :mod:`repro.transport.handshake` — mutual authentication: both sides
  present certificate chains (validated with the GSI proxy rules), the
  client performs RSA key transport of the pre-master secret (the SSL 3.0
  key exchange), and both sides prove possession of their private keys by
  signing the handshake transcript;
- :mod:`repro.transport.channel` — the :class:`SecureChannel` API;
- :mod:`repro.transport.delegation` — proxy delegation over an established
  channel: the remote side generates a key pair, proves possession, and
  receives a signed proxy certificate; the private key never crosses the
  wire (§2.4);
- :mod:`repro.transport.tickets` — session-resumption tickets: repeat
  clients (portals, renewal agents) skip RSA key transport and the chain
  walk on reconnect, with revocation-safe refusal rules.
"""

from repro.transport.channel import SecureChannel, connect_secure, accept_secure
from repro.transport.delegation import accept_delegation, delegate_credential
from repro.transport.links import Link, PipeLink, SocketLink, pipe_pair
from repro.transport.tickets import (
    SessionTicket,
    SessionTicketManager,
    TicketRefused,
    TicketStore,
)

__all__ = [
    "Link",
    "PipeLink",
    "SocketLink",
    "SecureChannel",
    "SessionTicket",
    "SessionTicketManager",
    "TicketRefused",
    "TicketStore",
    "accept_delegation",
    "accept_secure",
    "connect_secure",
    "delegate_credential",
    "pipe_pair",
]
