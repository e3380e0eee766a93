"""Executable versions of the paper's §5 threat analysis.

Each module arms one attacker capability and exposes what that attacker
actually obtains, so the §5 claims become assertions:

- :mod:`repro.attacks.eavesdrop` — a passive wire tap on any in-process
  connection (§5.1 "all data passing to and from the server is encrypted";
  §5.2 "transmitting the name and pass phrase over unencrypted HTTP would
  allow any intruder to snoop the pass phrase").
- :mod:`repro.attacks.replay` — replaying captured login traffic and
  captured secrets through a valid portal (§5.1's residual risk, defeated
  by one-time passwords).
- :mod:`repro.attacks.impersonate` — a fake MyProxy repository with
  credentials from an untrusted CA (§5.1 "prevents an attacker from
  impersonating the repository").
- :mod:`repro.attacks.compromise` — host compromises: what an intruder
  reads off a repository's spool directory, and what a compromised portal
  holds before/after user logins (§5.1).
"""

from repro.attacks.compromise import (
    PortalLoot,
    RepositoryLoot,
    loot_portal,
    loot_repository,
)
from repro.attacks.eavesdrop import WireCapture, tap_link_target, tap_web_connector
from repro.attacks.impersonate import FakeRepository
from repro.attacks.replay import replay_http_request, strip_cookies

__all__ = [
    "FakeRepository",
    "PortalLoot",
    "RepositoryLoot",
    "WireCapture",
    "loot_portal",
    "loot_repository",
    "replay_http_request",
    "strip_cookies",
    "tap_link_target",
    "tap_web_connector",
]
