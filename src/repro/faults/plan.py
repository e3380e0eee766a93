"""Fault plans: *what* goes wrong, *where*, and *when* — deterministically.

A :class:`FaultPlan` is a small, seeded description of the faults a test
(or an operator running a game day) wants injected: "tear the third write
to the replication log", "return ENOSPC on the active segment", "kill the
process right after the record frame is fsynced".  Components never consult the plan
directly; they call named *sites* on a :class:`~repro.faults.injector.
FaultInjector` holding the plan, so production code paths carry no test
logic — only site names.

Determinism is the whole point: the same plan + seed produces the same
byte-exact torn write and the same kill point every run, so a chaos
failure reproduces from its seed alone.
"""

from __future__ import annotations

import errno as _errno
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

__all__ = [
    "FAULT_KINDS",
    "CONN_RESET",
    "DELAY",
    "EIO",
    "ENOSPC",
    "KILL",
    "LOST_FSYNC",
    "PARTITION",
    "SHORT_WRITE",
    "TORN_WRITE",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "KillPoint",
]

# Fault kinds.  Write-shaped kinds (TORN_WRITE / SHORT_WRITE) only act at
# write sites; LOST_FSYNC only at fsync sites; the rest act anywhere.
KILL = "kill"  # process death at this site (SIGKILL or KillPoint)
TORN_WRITE = "torn"  # partial write hits the file, then the process dies
SHORT_WRITE = "short"  # partial write hits the file, write errors out
EIO = "eio"  # I/O error before any byte is written
ENOSPC = "enospc"  # disk full before any byte is written
LOST_FSYNC = "lost_fsync"  # fsync silently does nothing (data stays volatile)
DELAY = "delay"  # the operation stalls (races widen)
CONN_RESET = "reset"  # peer resets the connection
PARTITION = "partition"  # network partition: the peer is unreachable

FAULT_KINDS = frozenset(
    {KILL, TORN_WRITE, SHORT_WRITE, EIO, ENOSPC, LOST_FSYNC, DELAY, CONN_RESET, PARTITION}
)

_ERRNOS = {EIO: _errno.EIO, ENOSPC: _errno.ENOSPC, SHORT_WRITE: _errno.ENOSPC}


class KillPoint(BaseException):
    """The simulated process death raised at a kill site.

    Deliberately a :class:`BaseException`: real code catches ``Exception``
    (and narrower) all over, and a dead process does not get to run its
    ``except`` blocks.  Only the chaos harness itself should catch this.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"injected process kill at {site}")
        self.site = site


class InjectedFault(OSError):
    """An injected I/O failure, indistinguishable from the real thing."""

    def __init__(self, kind: str, site: str) -> None:
        super().__init__(_ERRNOS.get(kind, _errno.EIO), f"injected {kind} at {site}")
        self.kind = kind
        self.site = site


@dataclass
class FaultRule:
    """One fault: ``kind`` at ``site`` (glob), on hits ``at..at+times-1``.

    ``at`` is 1-based: ``at=3`` means the third time the site fires.
    ``times=None`` means every hit from ``at`` onward.
    """

    kind: str
    site: str
    at: int = 1
    times: int | None = 1
    delay: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 1:
            raise ValueError("FaultRule.at is 1-based")

    def matches(self, site: str, hit: int) -> bool:
        if not fnmatchcase(site, self.site):
            return False
        if hit < self.at:
            return False
        return self.times is None or hit < self.at + self.times


@dataclass
class FaultPlan:
    """An ordered rule list plus the seed that fixes every random choice."""

    rules: list[FaultRule] = field(default_factory=list)
    seed: int = 0

    def match(self, site: str, hit: int) -> FaultRule | None:
        for rule in self.rules:
            if rule.matches(site, hit):
                return rule
        return None

    @classmethod
    def parse(cls, spec: str, *, seed: int = 0) -> "FaultPlan":
        """Parse ``"kind@site[:at]"`` comma-separated, e.g.
        ``"kill@repo.segment.append.synced,eio@repo.segment.write:2"``.

        This is the ``REPRO_FAULTS`` environment format, which is how a
        real ``myproxy-server`` subprocess gets told where to die.
        """
        rules: list[FaultRule] = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            kind, sep, rest = part.partition("@")
            if not sep or not rest:
                raise ValueError(f"bad fault spec {part!r} (want kind@site[:at])")
            site, _, at_text = rest.partition(":")
            at = int(at_text) if at_text else 1
            rules.append(FaultRule(kind=kind.strip(), site=site.strip(), at=at))
        return cls(rules=rules, seed=seed)
