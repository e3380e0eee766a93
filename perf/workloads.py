"""The four workloads: what each sends, how each reply is checked.

Why each exists is in ``WORKLOADS[...].why`` (copied into BENCHMARK.json)
and at length in ``perf/README.md``.
"""

from __future__ import annotations

import math
import random
import threading
import time
from collections.abc import Callable, Iterable

from repro.core.client import ClientStats, MyProxyClient, myproxy_init_from_longterm
from repro.core.protocol import DEFAULT_CRED_NAME, AuthMethod
from repro.core.repository import RepositoryEntry
from repro.pki.credentials import Credential
from repro.pki.proxy import create_proxy
from repro.transport.tickets import TicketStore
from repro.util.errors import AuthenticationError

from perf.engine import WORKERS, Plan, arrival_offsets, no_span
from perf.world import (
    BASE_USERS,
    DISTINCT_CREDENTIALS,
    PASSPHRASE,
    STORED_LIFETIME,
    World,
    base_username,
)

GET_LIFETIME = 2 * 3600.0
#: Issuer and holder share this machine's clock, so a second of slack only
#: covers the time between the server's stamp and our check.
LIFETIME_SLACK = 1.0


class WrongReply(Exception):
    """The server answered, and the answer is not the one expected."""


def _run_on_workers(jobs: list[Callable[[], None]]) -> None:
    """Run priming jobs on ``WORKERS`` threads; the first failure is raised."""
    failures: list[BaseException] = []
    chunks = [jobs[w::WORKERS] for w in range(WORKERS)]

    def drain(chunk: list[Callable[[], None]]) -> None:
        try:
            for job in chunk:
                job()
        except BaseException as exc:  # noqa: BLE001 - re-raised on the caller's thread
            failures.append(exc)

    threads = [threading.Thread(target=drain, args=(chunk,), daemon=True) for chunk in chunks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


class Workload:
    """Base: one traffic mix against one ``World``."""

    name = ""
    why = ""
    #: The server command whose request histogram times this workload's ops.
    server_command = ""

    def __init__(self) -> None:
        self.stats = ClientStats()
        self.world: World | None = None

    def extra_entries(self, world: World, now: float, seconds: float) -> Iterable[RepositoryEntry]:
        """Entries to bulk-load beside the 2 048 base ones."""
        return ()

    def prime(self, world: World) -> None:
        """After every server start: build clients, then warm up.

        Warm-up is a fixed number of discarded operations: enough for every
        client to hold a session ticket and for the entries the window
        expects hot to be in the server's LRU.
        """
        raise NotImplementedError

    def plan(self, rng: random.Random, seconds: float) -> Plan:
        raise NotImplementedError

    def execute(self, worker: int, op: tuple, span) -> None:
        raise NotImplementedError

    def end_checks(self) -> list[Callable[[], None]]:
        """Checks run once after the window; each raises on a wrong state."""
        return []

    # -- shared reply checking ------------------------------------------------

    def _check_proxy(self, proxy: Credential, owner: Credential, asked_at: float, span) -> None:
        """A retrieved proxy validates, names its owner and does not outlive the request."""
        world = self.world
        assert world is not None
        with span("pki.validation.validate"):
            validated = world.validator.validate(proxy.full_chain())
        if validated.identity != owner.identity:
            raise WrongReply(f"proxy names {validated.identity}, expected {owner.identity}")
        limit = asked_at + GET_LIFETIME + LIFETIME_SLACK
        if proxy.certificate.not_after > limit:
            raise WrongReply(
                f"proxy outlives the request by {proxy.certificate.not_after - limit:.1f}s"
            )


# --------------------------------------------------------------------------
# portal_login
# --------------------------------------------------------------------------


class PortalLogin(Workload):
    name = "portal_login"
    why = (
        "Open loop at 8 GET/s (about 45% of capacity): Figure 2/3 pass-phrase retrieval by one "
        "portal; key load + pass-phrase KDF + delegation do the work, half the reads miss the LRU."
    )
    server_command = "GET"
    RATE = 8.0
    #: Names touched in warm-up, so they sit in the server's LRU; half the
    #: window's reads go to them and half to names never read before, which
    #: makes about half the reads miss whatever the window length.
    HOT_NAMES = 16

    def prime(self, world: World) -> None:
        self.world = world
        tickets = TicketStore()
        self.clients = [
            world.client(world.portal, stats=self.stats, ticket_store=tickets)
            for _ in range(WORKERS)
        ]
        _run_on_workers([
            (lambda i=i: self._get(i % WORKERS, i, no_span))
            for i in range(self.HOT_NAMES)
        ])

    def plan(self, rng: random.Random, seconds: float) -> Plan:
        offsets = arrival_offsets(rng, self.RATE, seconds)
        cold = rng.sample(range(self.HOT_NAMES, BASE_USERS), len(offsets))
        ops = [
            ("get", rng.randrange(self.HOT_NAMES) if rng.random() < 0.5 else cold[i])
            for i in range(len(offsets))
        ]
        return Plan(ops=[ops], offsets=offsets)

    def _get(self, worker: int, index: int, span) -> None:
        world = self.world
        assert world is not None
        asked_at = time.time()
        with span("core.client.get_delegation"):
            proxy = self.clients[worker].get_delegation(
                username=base_username(index), passphrase=PASSPHRASE, lifetime=GET_LIFETIME
            )
        self._check_proxy(proxy, world.stored_for(index).owner, asked_at, span)

    def execute(self, worker: int, op: tuple, span) -> None:
        self._get(worker, op[1], span)


# --------------------------------------------------------------------------
# renewal_storm
# --------------------------------------------------------------------------


class RenewalStorm(Workload):
    name = "renewal_storm"
    why = (
        "Closed loop, 2 agents back-to-back: section 6.6 renewal by possession on hot entries; "
        "saturates the server, so throughput is capacity. No pass-phrase KDF: the bypass of "
        "a KDF change."
    )
    server_command = "GET"
    ENTRIES = 8
    AGENTS = 16

    @staticmethod
    def job_name(entry: int) -> str:
        return f"job{entry:02d}"

    def prime(self, world: World) -> None:
        self.world = world
        # Renewable entries hold a key copy sealed under the master key the
        # server process made at start, so they cannot be bulk-loaded: each
        # owner PUTs its own, as a user would before submitting jobs.
        _run_on_workers([
            (lambda e=e: myproxy_init_from_longterm(
                world.client(world.users[e], stats=ClientStats()),
                world.users[e],
                username=self.job_name(e),
                passphrase=PASSPHRASE,
                lifetime=STORED_LIFETIME,
                key_source=world.key_pool,
                renewers=("*",),
            ))
            for e in range(self.ENTRIES)
        ])
        # An agent's first proxy sits three links below the user, like the
        # ones the server hands back (myproxy-init's proxy, the stored one
        # delegated from it, the retrieved one), so swapping a fresh proxy
        # in never changes the subject its session ticket is filed under.
        self.agents: list[MyProxyClient] = []
        for a in range(self.AGENTS):
            proxy = world.users[a % self.ENTRIES]
            for _ in range(3):
                proxy = create_proxy(proxy, key_source=world.key_pool)
            self.agents.append(world.client(proxy, stats=self.stats))
        _run_on_workers([
            (lambda a=a: self._renew(a, no_span)) for a in range(self.AGENTS)
        ])

    def plan(self, rng: random.Random, seconds: float) -> Plan:
        # Worker w owns the agents a with a % WORKERS == w, so no agent's
        # proxy is swapped by two threads; the seed orders their turns.
        ops = []
        for w in range(WORKERS):
            mine = list(range(w, self.AGENTS, WORKERS))
            rng.shuffle(mine)
            ops.append([("renew", a) for a in mine])
        return Plan(ops=ops, cycle=True)

    def _renew(self, agent: int, span) -> None:
        world = self.world
        assert world is not None
        client = self.agents[agent]
        asked_at = time.time()
        with span("core.client.get_delegation"):
            proxy = client.get_delegation(
                username=self.job_name(agent % self.ENTRIES),
                lifetime=GET_LIFETIME,
                auth_method=AuthMethod.RENEWAL,
            )
        self._check_proxy(proxy, world.users[agent % self.ENTRIES], asked_at, span)
        client.credential = proxy  # the agent carries on with the fresh proxy

    def execute(self, worker: int, op: tuple, span) -> None:
        self._renew(op[1], span)


# --------------------------------------------------------------------------
# init_put
# --------------------------------------------------------------------------


class InitPut(Workload):
    name = "init_put"
    why = (
        "Closed loop, 2 clients: Figure 1 myproxy-init PUT overwriting own entries; server "
        "keygen, key export, verifier creation, segment append + fsync. A read cache that "
        "taxes writes shows here."
    )
    server_command = "PUT"
    NAMES_PER_CLIENT = 8

    def __init__(self) -> None:
        super().__init__()
        self.written: set[tuple[int, int]] = set()

    @staticmethod
    def put_name(worker: int, slot: int) -> str:
        return f"init{worker}-{slot:02d}"

    def prime(self, world: World) -> None:
        self.world = world
        self.clients = [
            world.client(world.users[w], stats=self.stats) for w in range(WORKERS)
        ]
        _run_on_workers([
            (lambda w=w, s=s: self._put(w, s, no_span))
            for s in range(2) for w in range(WORKERS)
        ])

    def plan(self, rng: random.Random, seconds: float) -> Plan:
        ops = []
        for w in range(WORKERS):
            slots = list(range(self.NAMES_PER_CLIENT))
            rng.shuffle(slots)
            ops.append([("put", slot) for slot in slots])
        return Plan(ops=ops, cycle=True)

    def _put(self, worker: int, slot: int, span) -> None:
        world = self.world
        assert world is not None
        with span("core.client.myproxy_init_from_longterm"):
            response = myproxy_init_from_longterm(
                self.clients[worker],
                world.users[worker],
                username=self.put_name(worker, slot),
                passphrase=PASSPHRASE,
                lifetime=STORED_LIFETIME,
                key_source=world.key_pool,
            )
        if response.info.get("stored") is not True or response.info.get("cred_name") != DEFAULT_CRED_NAME:
            raise WrongReply(f"PUT commit reply was {response.info!r}")
        self.written.add((worker, slot))

    def execute(self, worker: int, op: tuple, span) -> None:
        self._put(worker, op[1], span)

    def end_checks(self) -> list[Callable[[], None]]:
        world = self.world
        assert world is not None
        portal = world.client(world.portal, stats=ClientStats())

        def retrievable(worker: int, slot: int) -> None:
            asked_at = time.time()
            proxy = portal.get_delegation(
                username=self.put_name(worker, slot), passphrase=PASSPHRASE, lifetime=GET_LIFETIME
            )
            self._check_proxy(proxy, world.users[worker], asked_at, no_span)

        sample = sorted(self.written)[:: max(len(self.written) // 4, 1)][:4]
        return [(lambda w=w, s=s: retrievable(w, s)) for w, s in sample]


# --------------------------------------------------------------------------
# info_destroy
# --------------------------------------------------------------------------


class InfoDestroy(Workload):
    name = "info_destroy"
    why = (
        "Closed loop, 2 clients: 80% info / 20% destroy by owners, the smallest packet; "
        "connect, resumed handshake, admission, codec, audit and tombstone fsync dominate "
        "instead of being diluted."
    )
    #: INFO is four ops in five; DESTROY is reported beside it per layer.
    server_command = "INFO"
    DESTROY_SHARE = 0.2
    #: Ops per second and client the plan is sized for; a client that runs
    #: out of plan ends its window early instead of destroying twice.
    MAX_RATE_PER_CLIENT = 400.0
    WARMUP_OPS = 8

    def __init__(self) -> None:
        super().__init__()
        self.fillers = 0
        # Kept across server restarts: no filler is ever destroyed twice.
        self.next_filler = [0] * WORKERS
        self.destroyed: list[tuple[int, str]] = []

    @staticmethod
    def filler_name(worker: int, index: int) -> str:
        return f"fill{worker}-{index:05d}"

    def _plan_length(self, seconds: float) -> int:
        return math.ceil(seconds * self.MAX_RATE_PER_CLIENT)

    def _fillers(self, seconds: float) -> int:
        # The expected destroy count plus six standard deviations and the
        # warm-up's own destroys.
        n = self._plan_length(seconds)
        mean = n * self.DESTROY_SHARE
        return math.ceil(mean + 6.0 * math.sqrt(mean) + self.WARMUP_OPS)

    def extra_entries(self, world: World, now: float, seconds: float) -> Iterable[RepositoryEntry]:
        self.fillers = self._fillers(seconds)
        for w in range(WORKERS):
            for i in range(self.fillers):
                yield world.stored[w].entry(self.filler_name(w, i), now)

    def prime(self, world: World) -> None:
        self.world = world
        self.clients = [
            world.client(create_proxy(world.users[w], key_source=world.key_pool), stats=self.stats)
            for w in range(WORKERS)
        ]
        jobs = []
        for w in range(WORKERS):
            for i in range(self.WARMUP_OPS):
                op = self._destroy_op(w) if i % 4 == 3 else ("info", self._own_names(w)[i])
                jobs.append(lambda w=w, op=op: self.execute(w, op, no_span))
        _run_on_workers(jobs)

    @staticmethod
    def _own_names(worker: int) -> list[int]:
        """Base entries owned by client ``worker``: never destroyed, so always listable."""
        return list(range(worker, BASE_USERS, DISTINCT_CREDENTIALS))

    def _destroy_op(self, worker: int) -> tuple:
        index = self.next_filler[worker]
        if index >= self.fillers:
            raise RuntimeError("plan needs more filler entries than were loaded")
        self.next_filler[worker] = index + 1
        return ("destroy", self.filler_name(worker, index))

    def plan(self, rng: random.Random, seconds: float) -> Plan:
        ops = []
        for w in range(WORKERS):
            names = self._own_names(w)
            ops.append([
                self._destroy_op(w) if rng.random() < self.DESTROY_SHARE
                else ("info", rng.choice(names))
                for _ in range(self._plan_length(seconds))
            ])
        return Plan(ops=ops)

    def execute(self, worker: int, op: tuple, span) -> None:
        world = self.world
        assert world is not None
        client = self.clients[worker]
        if op[0] == "info":
            with span("core.client.info"):
                rows = client.info(username=base_username(op[1]))
            stored = world.stored_for(op[1])
            if len(rows) != 1:
                raise WrongReply(f"info returned {len(rows)} rows, expected 1")
            row = rows[0]
            expected = (
                DEFAULT_CRED_NAME, str(stored.owner.identity), "passphrase", False, None,
            )
            got = (row.cred_name, row.owner, row.auth_method, row.long_term, row.retrievers)
            if got != expected or abs(row.not_after - stored.proxy.certificate.not_after) > 1e-3:
                raise WrongReply(f"info row {got!r} at {row.not_after}, expected {expected!r}")
        else:
            with span("core.client.destroy"):
                response = client.destroy(username=op[1])
            if response.info.get("destroyed") is not True:
                raise WrongReply(f"destroy reply was {response.info!r}")
            self.destroyed.append((worker, op[1]))

    def end_checks(self) -> list[Callable[[], None]]:
        def gone(worker: int, username: str) -> None:
            try:
                rows = self.clients[worker].info(username=username)
            except AuthenticationError:
                return  # the server's generic refusal: nothing is stored there
            raise WrongReply(f"destroyed entry {username} still lists {len(rows)} row(s)")

        sample = self.destroyed[:: max(len(self.destroyed) // 4, 1)][:4]
        return [(lambda w=w, u=u: gone(w, u)) for w, u in sample]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PortalLogin, RenewalStorm, InitPut, InfoDestroy)
}
