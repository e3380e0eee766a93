"""Deterministic fault injection for the storage and cluster layers.

The paper's durability claims (§5.1: the repository is the safe home of a
user's credentials) are only worth what they survive.  This package makes
every claim executable under adversity: seeded fault plans plant torn
writes, I/O errors, lost fsyncs, partitions and process kills at *named
sites* inside the segment-store and replication paths — no
monkeypatching, no nondeterminism.  ``tests/chaos`` drives it.
"""

from repro.faults.injector import (
    NO_FAULTS,
    FaultInjector,
    ShimFile,
    active,
    kill_point,
    kill_points,
    reset_active,
)
from repro.faults.netchaos import (
    NET_DELAY,
    NET_DUPLICATE,
    NET_HALF_OPEN,
    NET_PARTITION,
    NET_TRICKLE,
    ChaosLink,
    NetChaos,
    NetRule,
)
from repro.faults.plan import (
    CONN_RESET,
    DELAY,
    EIO,
    ENOSPC,
    FAULT_KINDS,
    KILL,
    LOST_FSYNC,
    PARTITION,
    SHORT_WRITE,
    TORN_WRITE,
    FaultPlan,
    FaultRule,
    InjectedFault,
    KillPoint,
)

__all__ = [
    "CONN_RESET",
    "DELAY",
    "EIO",
    "ENOSPC",
    "FAULT_KINDS",
    "KILL",
    "LOST_FSYNC",
    "NET_DELAY",
    "NET_DUPLICATE",
    "NET_HALF_OPEN",
    "NET_PARTITION",
    "NET_TRICKLE",
    "NO_FAULTS",
    "PARTITION",
    "SHORT_WRITE",
    "TORN_WRITE",
    "ChaosLink",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "KillPoint",
    "NetChaos",
    "NetRule",
    "ShimFile",
    "active",
    "kill_point",
    "kill_points",
    "reset_active",
]
