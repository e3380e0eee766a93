"""Named workloads the paper's production fleets actually send.

Each scenario owns three things: *setup* (register the identities and
repository entries the workload needs), a thread-safe *operation* the
engine calls once per scheduled arrival, and its preferred schedule
shape.  Operation mixes and per-arrival choices are precomputed from the
run's seed at setup time, so two runs with the same spec issue the same
op sequence even though real-mode threads may interleave differently.

================  =====================================================
scenario          what it models
================  =====================================================
portal-login      The Figure-3 flow's hot half: a portal retrieving a
                  delegation per user login (Figure 2 GET), at
                  configurable RPS with burst/ramp/sine shapes.
renewal-storm     A Condor-G fleet (``repro.condor``) whose jobs share a
                  renewal epoch: agents authenticate *with the expiring
                  proxy itself* (§6.6 renewal-by-possession) in
                  synchronized bursts.
mixed-crud        Weighted STORE / RETRIEVE / INFO / DESTROY over a
                  keyspace of user DNs — the background hum of a busy
                  repository.
restricted-       Mediated *restricted* delegation: policy-bearing
delegation        proxies (operations/resources limits, §6.5) stored
                  and retrieved; every retrieval round-trips the policy
                  extensions and any loss scores as an error.
portal-sso        The full federation path (``repro.federation``): a
                  logged-in web session mints an SSO assertion, the
                  gateway redeems it into a restricted proxy deposited
                  in the *peer realm* over IVOA CDP, and a job-style
                  retrieval fetches it there.  Needs a federated
                  self-hosted target (two in-process realms).
================  =====================================================
"""

from __future__ import annotations

import random
import threading
from collections import deque

from repro.core.client import myproxy_init_from_longterm
from repro.core.protocol import AuthMethod
from repro.pki.proxy import ProxyRestrictions, create_proxy, effective_restrictions
from repro.util.errors import ConfigError, ReproError

#: Satisfies the default §4.1 pass-phrase policy (length + dictionary).
_PASS_TEMPLATE = "loadgen secret {name} 77"

#: The policy payload restricted-delegation proxies carry.
RESTRICTIONS = ProxyRestrictions(
    operations=frozenset({"store", "fetch", "list"}),
    resources=frozenset({"mass-storage"}),
)


class PolicyLostError(ReproError):
    """A retrieved proxy came back without the restrictions it was stored with."""


class Scenario:
    """Base class: subclasses fill in setup/operation."""

    name = "scenario"
    default_shape = "constant"

    def __init__(self, target, *, users: int, seed: int) -> None:
        if users < 1:
            raise ConfigError("a scenario needs at least one user")
        self.target = target
        self.n_users = users
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def operation(self, index: int) -> None:
        raise NotImplementedError

    def config(self) -> dict:
        return {"users": self.n_users, "seed": self.seed}

    @staticmethod
    def _passphrase(name: str) -> str:
        return _PASS_TEMPLATE.format(name=name)


class PortalLoginScenario(Scenario):
    """Figure-3 logins: the portal GETs a fresh delegation per arrival."""

    name = "portal-login"
    default_shape = "sine"

    def setup(self) -> None:
        self._users = []
        for i in range(self.n_users):
            user = self.target.new_user(f"portal{i:03d}")
            # Figure 1: delegate a one-week proxy into the repository —
            # through the protocol, so it works against any target.
            with self.target.client_for(user.credential) as client:
                myproxy_init_from_longterm(
                    client,
                    user.credential,
                    username=user.name,
                    passphrase=self._passphrase(user.name),
                    key_source=self.target.key_source,
                )
            self._users.append(user)
        self._portal_cred = self.target.new_service_credential("loadgen-portal.example.org")

    def operation(self, index: int) -> None:
        user = self._users[index % len(self._users)]
        # A fresh client per login — every kiosk session dials anew.
        with self.target.client_for(self._portal_cred) as client:
            proxy = client.get_delegation(
                username=user.name,
                passphrase=self._passphrase(user.name),
                lifetime=2 * 3600.0,
            )
        if str(proxy.certificate.subject.base_identity()) != str(user.dn):
            raise ReproError(f"delegation for {user.name} came back mis-issued")


class RenewalStormScenario(Scenario):
    """§6.6 renewal-by-possession at fleet scale, epoch-synchronized."""

    name = "renewal-storm"
    default_shape = "storm"

    #: Cap on distinct agents; arrivals beyond it cycle through the fleet
    #: (one agent renewing twice per epoch is exactly what a retried
    #: Condor-G manager does).
    max_agents = 128

    def __init__(self, target, *, users: int, seed: int, agents: int | None = None):
        super().__init__(target, users=users, seed=seed)
        self.n_agents = min(agents or max(users * 4, 16), self.max_agents)

    def setup(self) -> None:
        self._owners = []
        for i in range(self.n_users):
            owner = self.target.new_user(f"storm{i:03d}")
            proxy = create_proxy(
                owner.credential,
                lifetime=7 * 86400.0,
                key_source=self.target.key_source,
                clock=self.target.clock,
            )
            with self.target.client_for(owner.credential) as client:
                client.put(
                    proxy,
                    username=owner.name,
                    passphrase=self._passphrase(owner.name),
                    lifetime=7 * 86400.0,
                    renewers=("*",),
                )
            self._owners.append(owner)
        # Each agent's first proxy comes from a pass-phrase GET (the job
        # submission); after that, possession is the only secret held.
        self._agents: list[dict] = []
        svc = self.target.new_service_credential("loadgen-agent.example.org")
        for i in range(self.n_agents):
            owner = self._owners[i % len(self._owners)]
            with self.target.client_for(svc) as client:
                current = client.get_delegation(
                    username=owner.name,
                    passphrase=self._passphrase(owner.name),
                    lifetime=3600.0,
                )
            self._agents.append(
                {"owner": owner, "proxy": current, "lock": threading.Lock()}
            )

    def operation(self, index: int) -> None:
        agent = self._agents[index % len(self._agents)]
        with agent["lock"]:
            current = agent["proxy"]
        with self.target.client_for(current) as client:
            fresh = client.get_delegation(
                username=agent["owner"].name,
                passphrase="",
                lifetime=3600.0,
                auth_method=AuthMethod.RENEWAL,
            )
        with agent["lock"]:
            agent["proxy"] = fresh

    def config(self) -> dict:
        return {**super().config(), "agents": self.n_agents}


class MixedCrudScenario(Scenario):
    """Weighted STORE/RETRIEVE/INFO/DESTROY over a DN keyspace."""

    name = "mixed-crud"
    default_shape = "constant"

    WEIGHTS = (("store", 0.30), ("retrieve", 0.30), ("info", 0.20), ("destroy", 0.20))

    def setup(self) -> None:
        self._users = []
        self._stored: dict[str, deque] = {}
        self._lock = threading.Lock()
        for i in range(self.n_users):
            user = self.target.new_user(f"crud{i:03d}")
            # A long-lived "seed" entry keeps RETRIEVE/INFO meaningful
            # regardless of how the weighted stream interleaves.
            with self.target.client_for(user.credential) as client:
                client.store_longterm(
                    user.credential,
                    username=user.name,
                    passphrase=self._passphrase(user.name),
                    cred_name="seed",
                )
            self._users.append(user)
            self._stored[user.name] = deque()
        # The op mix is drawn once, seeded — identical across runs.
        rng = random.Random(self.seed)
        ops, weights = zip(*self.WEIGHTS)
        self._mix = rng.choices(ops, weights=weights, k=65536)

    def _pick(self, index: int) -> str:
        return self._mix[index % len(self._mix)]

    def operation(self, index: int) -> None:
        user = self._users[index % len(self._users)]
        with self.target.client_for(user.credential) as client:
            self._operate(client, user, index)

    def _operate(self, client, user, index: int) -> None:
        op = self._pick(index)
        passphrase = self._passphrase(user.name)
        if op == "destroy":
            with self._lock:
                pending = self._stored[user.name]
                cred_name = pending.popleft() if pending else None
            if cred_name is None:
                op = "store"  # nothing to destroy yet; keep the arrival useful
            else:
                client.destroy(username=user.name, cred_name=cred_name)
                return
        if op == "store":
            cred_name = f"tmp-{index}"
            client.store_longterm(
                user.credential,
                username=user.name,
                passphrase=passphrase,
                cred_name=cred_name,
            )
            with self._lock:
                self._stored[user.name].append(cred_name)
        elif op == "retrieve":
            client.retrieve_longterm(
                username=user.name, passphrase=passphrase, cred_name="seed"
            )
        elif op == "info":
            rows = client.info(username=user.name)
            if not rows:
                raise ReproError(f"info for {user.name} returned no rows")

    def config(self) -> dict:
        return {**super().config(), "weights": dict(self.WEIGHTS)}


class RestrictedDelegationScenario(Scenario):
    """Policy-bearing proxies: store restricted, retrieve, verify survival."""

    name = "restricted-delegation"
    default_shape = "constant"

    def setup(self) -> None:
        self._users = []
        for i in range(self.n_users):
            user = self.target.new_user(f"restr{i:03d}")
            restricted = create_proxy(
                user.credential,
                lifetime=7 * 86400.0,
                restrictions=RESTRICTIONS,
                key_source=self.target.key_source,
                clock=self.target.clock,
            )
            with self.target.client_for(user.credential) as client:
                client.put(
                    restricted,
                    username=user.name,
                    passphrase=self._passphrase(user.name),
                    lifetime=7 * 86400.0,
                )
            self._users.append(user)
        self._retriever = self.target.new_service_credential(
            "loadgen-mediator.example.org"
        )

    def operation(self, index: int) -> None:
        user = self._users[index % len(self._users)]
        with self.target.client_for(self._retriever) as client:
            proxy = client.get_delegation(
                username=user.name,
                passphrase=self._passphrase(user.name),
                lifetime=3600.0,
            )
        self.verify_restrictions(proxy)

    @staticmethod
    def verify_restrictions(proxy) -> None:
        """The round-trip check: what was stored must still bind the leaf."""
        effective = effective_restrictions(proxy.full_chain())
        if effective.is_unrestricted:
            raise PolicyLostError("retrieved proxy lost its restrictions")
        if effective.operations is None or not (
            effective.operations <= RESTRICTIONS.operations
        ):
            raise PolicyLostError(
                f"operations widened in transit: {effective.operations}"
            )
        if effective.resources is None or not (
            effective.resources <= RESTRICTIONS.resources
        ):
            raise PolicyLostError(
                f"resources widened in transit: {effective.resources}"
            )
        if effective.permits("submit_job", "gram"):
            raise PolicyLostError("restricted proxy permits an excluded operation")


class PortalSsoScenario(Scenario):
    """login → assertion → cross-realm CDP delegation → job retrieval."""

    name = "portal-sso"
    default_shape = "constant"

    #: Where sessions live and where credentials land.
    home_realm = "alpha"
    peer_realm = "beta"

    def __init__(self, target, *, users: int, seed: int) -> None:
        super().__init__(target, users=users, seed=seed)
        if getattr(target, "federation", None) is None:
            raise ConfigError(
                "portal-sso needs a federated self-hosted target "
                "(two in-process realms); external targets cannot host it"
            )
        self.fed = target.federation

    def setup(self) -> None:
        from repro.web.sessions import SESSION_COOKIE

        home = self.fed[self.home_realm]
        self._portal_host = f"portal-{self.home_realm}.example.org"
        self._gateway_host = home.gateway_host
        self._sessions: list[str] = []
        for i in range(self.n_users):
            user = home.tb.new_user(f"sso{i:03d}")
            home.tb.myproxy_init(user, passphrase=self._passphrase(user.name))
            browser = self.fed.browser()
            login = browser.post(
                f"https://{self._portal_host}/login",
                {
                    "username": user.name,
                    "passphrase": self._passphrase(user.name),
                    "repository": "repo-0",
                    "lifetime_hours": "2",
                    "auth_method": "passphrase",
                },
            )
            if login.status not in (200, 302, 303):
                raise ReproError(f"portal login failed for {user.name}")
            sid = browser.cookies[self._portal_host][SESSION_COOKIE]
            self._sessions.append(sid)
        self._session_cookie = SESSION_COOKIE
        # The job-side retriever in the peer realm (Figure 2's client).
        peer = self.fed[self.peer_realm]
        self._job_cred = peer.tb.ca.issue_host_credential(
            "loadgen-job.example.org", key=self.target.key_source.new_key()
        )

    def operation(self, index: int) -> None:
        from repro.federation.sso import redeem_session

        sid = self._sessions[index % len(self._sessions)]
        # A fresh browser per arrival carrying the session cookie — the
        # user's next page-load, not a long-lived client.
        browser = self.fed.browser()
        browser.cookies[self._portal_host] = {self._session_cookie: sid}
        redeemed = redeem_session(
            browser, portal_host=self._portal_host, gateway_host=self._gateway_host,
            realm=self.peer_realm,
        )
        # Job-style retrieval in the peer realm, with the one-shot secret.
        with self.target.client_for_realm(self.peer_realm, self._job_cred) as client:
            proxy = client.get_delegation(
                username=redeemed.username,
                passphrase=redeemed.passphrase,
                cred_name=redeemed.cred_name,
                lifetime=1800.0,
            )
        RestrictedDelegationScenario.verify_restrictions(proxy)

    def config(self) -> dict:
        return {
            **super().config(),
            "home_realm": self.home_realm,
            "peer_realm": self.peer_realm,
        }


SCENARIOS: dict[str, type[Scenario]] = {
    cls.name: cls
    for cls in (
        PortalLoginScenario,
        RenewalStormScenario,
        MixedCrudScenario,
        RestrictedDelegationScenario,
        PortalSsoScenario,
    )
}

#: Small-but-meaningful defaults per scenario (CLI ``--users`` overrides).
DEFAULT_USERS = {
    "portal-login": 16,
    "renewal-storm": 8,
    "mixed-crud": 16,
    "restricted-delegation": 8,
    "portal-sso": 8,
}


def build_scenario(name: str, target, *, users: int | None = None,
                   seed: int = 0, **kwargs) -> Scenario:
    try:
        cls = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        ) from None
    return cls(target, users=users or DEFAULT_USERS[name], seed=seed, **kwargs)
