"""Shared fixtures.

Key generation dominates test run time, so a session-scoped
:class:`~repro.pki.keys.PooledKeySource` is shared by everything; the
certificates themselves are still minted per test (they embed clock times).

Every test runs under the thread and error gate (:func:`_thread_and_error_gate`).
"""

from __future__ import annotations

import logging
import threading
import time

import pytest
from cryptography.hazmat.primitives.asymmetric import rsa

from repro.pki.ca import CertificateAuthority
from repro.pki.keys import KeyPair, PooledKeySource
from repro.pki.names import DistinguishedName
from repro.pki.validation import ChainValidator
from repro.testbed import GridTestbed
from repro.util.clock import ManualClock

TEST_BITS = 1024
EPOCH = 1_600_000_000.0  # a fixed, comfortably modern starting instant
#: How long a thread a test started may take to finish once its fixtures
#: are torn down (a stopped server's workers are already joined).
THREAD_GRACE = 2.0


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "expect_error(*names): the test provokes exceptions of these type names "
        "in a thread or an error log record on purpose (the gate lets them by)",
    )


class _ErrorRecords(logging.Handler):
    """Collects the exceptions ``repro.*`` loggers report at ERROR."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.exceptions: list[BaseException] = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.exc_info and record.exc_info[1] is not None:
            self.exceptions.append(record.exc_info[1])


@pytest.fixture(autouse=True)
def _thread_and_error_gate(request):
    """Fail a test that leaves a thread it started running after its
    fixtures are torn down, whose threads end in an uncaught exception, or
    that makes a ``repro`` logger report an exception at ERROR — unless an
    ``expect_error`` marker names that exception's type (or a base of it).

    Threads that fixtures of a wider scope started (before this one) are
    theirs, not the test's.  The ``repro`` loggers' handlers and level are
    put back as the test found them: the command-line tools install a
    stderr handler, which must not outlive the test that ran them.
    """
    expected = {
        name for marker in request.node.iter_markers("expect_error") for name in marker.args
    }
    before = set(threading.enumerate())
    records = _ErrorRecords()
    package = logging.getLogger("repro")
    handlers, level = list(package.handlers), package.level
    package.addHandler(records)
    uncaught: list[BaseException] = []
    previous_hook = threading.excepthook
    threading.excepthook = lambda args: uncaught.append(args.exc_value)
    try:
        yield
        deadline = time.monotonic() + THREAD_GRACE
        for thread in set(threading.enumerate()) - before:
            thread.join(max(deadline - time.monotonic(), 0.0))
    finally:
        threading.excepthook = previous_hook
        package.handlers[:] = handlers
        package.setLevel(level)
    problems = [
        f"thread {thread.name!r} is still running"
        for thread in set(threading.enumerate()) - before
    ]
    problems += [
        f"{where}: {type(exc).__name__}: {exc}"
        for where, raised in (("uncaught in a thread", uncaught),
                              ("logged at ERROR", records.exceptions))
        for exc in raised
        if not expected & {kind.__name__ for kind in type(exc).__mro__}
    ]
    if problems:
        pytest.fail("thread and error gate:\n  " + "\n  ".join(problems), pytrace=False)


@pytest.fixture(scope="session")
def key_pool() -> PooledKeySource:
    return PooledKeySource(TEST_BITS, size=24)


@pytest.fixture()
def corrupt_crt():
    """Copy a key with its CRT exponent ``dmp1`` broken.

    The public half is unchanged, so the copy still matches certificates
    issued for the original; only OpenSSL's RSA consistency check — what a
    validating :meth:`KeyPair.from_pem` runs — can tell.
    """

    def _corrupt(key: KeyPair) -> KeyPair:
        good = key.raw.private_numbers()
        bad = rsa.RSAPrivateNumbers(
            p=good.p, q=good.q, d=good.d, dmp1=good.dmp1 ^ 2, dmq1=good.dmq1,
            iqmp=good.iqmp, public_numbers=good.public_numbers,
        )
        return KeyPair(bad.private_key(unsafe_skip_rsa_key_validation=True))

    return _corrupt


@pytest.fixture()
def clock() -> ManualClock:
    return ManualClock(EPOCH)


@pytest.fixture()
def ca(clock, key_pool) -> CertificateAuthority:
    return CertificateAuthority(
        DistinguishedName.parse("/O=Grid/OU=Repro/CN=Test CA"),
        clock=clock,
        key=key_pool.new_key(),
    )


@pytest.fixture()
def validator(ca, clock) -> ChainValidator:
    return ChainValidator([ca.certificate], clock=clock)


@pytest.fixture()
def alice(ca, key_pool):
    return ca.issue_credential(
        DistinguishedName.grid_user("Grid", "Repro", "Alice"), key=key_pool.new_key()
    )


@pytest.fixture()
def bob(ca, key_pool):
    return ca.issue_credential(
        DistinguishedName.grid_user("Grid", "Repro", "Bob"), key=key_pool.new_key()
    )


@pytest.fixture()
def host_cred(ca, key_pool):
    return ca.issue_host_credential("service.example.org", key=key_pool.new_key())


@pytest.fixture()
def tb(clock, key_pool):
    """A pipe-transport Grid testbed on a manual clock."""
    testbed = GridTestbed(clock=clock, key_source=key_pool)
    yield testbed
    testbed.close()


CLUSTER_SECRET = bytes.fromhex("00112233445566778899aabbccddeeff")


@pytest.fixture()
def cluster_factory(ca, validator, key_pool, clock):
    """Build an N-node repository cluster; defaults to in-memory backends."""
    from repro.cluster import build_cluster
    from repro.core.repository import MemoryRepository
    from repro.core.server import MyProxyServer

    clusters = []

    def _make(
        n=3,
        *,
        backends=None,
        replication_factor=2,
        min_sync_acks=1,
        failover_timeout=5.0,
        state_dir=None,
        policy=None,
        log_dir=None,
        injectors=None,
        **cluster_kwargs,
    ):
        backends = (
            backends if backends is not None else [MemoryRepository() for _ in range(n)]
        )

        def make_server(i, name, box):
            cred = ca.issue_host_credential(
                f"{name}.example.org", key=key_pool.new_key()
            )
            return MyProxyServer(
                cred,
                validator,
                clock=clock,
                key_source=key_pool,
                master_box=box,
                policy=policy,
            )

        cluster = build_cluster(
            make_server,
            backends,
            secret=CLUSTER_SECRET,
            replication_factor=replication_factor,
            min_sync_acks=min_sync_acks,
            failover_timeout=failover_timeout,
            clock=clock,
            state_dir=state_dir,
            log_dir=log_dir,
            injectors=injectors,
            **cluster_kwargs,
        )
        clusters.append(cluster)
        return cluster

    yield _make
    for cluster in clusters:
        cluster.stop()


@pytest.fixture()
def cluster_client_factory(validator, key_pool, clock):
    """A failover-aware client over a cluster's in-process pipe targets."""
    from repro.cluster import FailoverMyProxyClient
    from repro.core.client import RetryPolicy

    fast_retry = RetryPolicy(rounds=3, base_delay=0.01, max_delay=0.05)

    def _make(cluster, credential, retry=fast_retry, **kwargs):
        return FailoverMyProxyClient(
            {name: node.target for name, node in cluster.nodes.items()},
            cluster.router(),
            credential,
            validator,
            retry=retry,
            clock=clock,
            key_source=key_pool,
            **kwargs,
        )

    return _make


@pytest.fixture()
def tb_factory(clock, key_pool):
    """For tests needing a customized testbed (policies, multiple repos)."""
    testbeds = []

    def _make(**kwargs) -> GridTestbed:
        kwargs.setdefault("clock", clock)
        kwargs.setdefault("key_source", key_pool)
        testbed = GridTestbed(**kwargs)
        testbeds.append(testbed)
        return testbed

    yield _make
    for testbed in testbeds:
        testbed.close()


REUSE_PASS = "correct horse 42"


@pytest.fixture()
def tcp_repository(ca, validator, clock, key_pool, alice):
    """Factory for a TCP repository on the manual clock, already holding
    alice's entry ``alice``.  Returns ``(server, client)`` where
    ``client(credential, **kwargs)`` builds a :class:`MyProxyClient` for it.
    """
    from repro.core.client import MyProxyClient, myproxy_init_from_longterm
    from repro.core.server import MyProxyServer

    servers = []

    def _make(policy=None, **server_kwargs):
        server = MyProxyServer(
            ca.issue_host_credential("repo.example.org", key=key_pool.new_key()),
            validator,
            clock=clock,
            key_source=key_pool,
            policy=policy,
            **server_kwargs,
        )
        endpoint = server.start()
        servers.append(server)

        def client(credential, **kwargs):
            return MyProxyClient(
                endpoint, credential, validator, clock=clock, key_source=key_pool, **kwargs
            )

        with client(alice) as owner:
            myproxy_init_from_longterm(
                owner, alice, username="alice", passphrase=REUSE_PASS, key_source=key_pool
            )
        return server, client

    yield _make
    for server in servers:
        server.stop()


def http_post(channel, path: str, payload: dict) -> tuple[int, dict]:
    """POST one JSON request on an open HTTPS channel; ``(status, body)``."""
    import json

    from repro.web.http11 import HttpRequest, HttpResponse

    channel.send(
        HttpRequest(
            "POST", path,
            headers=[("Content-Type", "application/json")],
            body=json.dumps(payload).encode("utf-8"),
        ).serialize()
    )
    response = HttpResponse.parse(channel.recv())
    return response.status, json.loads(response.body)


@pytest.fixture()
def https_gateway(validator, key_pool):
    """Mount an HTTP gateway on a server (e.g. one from ``tcp_repository``).

    ``https_gateway(server, via)`` returns ``connect(credential)``, which
    opens one kept-alive HTTPS connection to the gateway: through
    ``gateway.serve`` when ``via="tcp"``, dialled in process through the
    server's listener when ``via="pipe"``.
    """
    from repro.core.httpbinding import MyProxyHttpGateway
    from repro.transport.channel import connect_secure

    def _mount(server, via="tcp"):
        gateway = MyProxyHttpGateway(server, key_source=key_pool)
        if via == "tcp":
            endpoint = gateway.serve("127.0.0.1", 0)
            return lambda credential: connect_secure(
                endpoint, credential, validator, timeout=5.0
            )
        return lambda credential: connect_secure(gateway.connect(), credential, validator)

    return _mount
