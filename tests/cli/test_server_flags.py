"""``myproxy-server`` flags: the same policy, and the same validation, as the file.

Each test runs :func:`repro.cli.myproxy_server.main` up to the point where
the server would bind: ``MyProxyServer.start`` is replaced by a recorder
that captures the policy and storage knobs the CLI built, then raises, so
``main()`` returns 1 without opening a socket.
"""

from __future__ import annotations

import logging

import pytest

from repro.cli import myproxy_server
from repro.core.server import MyProxyServer
from repro.pki.names import DistinguishedName
from repro.util.errors import ReproError

ONE_DAY = 86400.0
ONE_HOUR = 3600.0


class _Stop(ReproError):
    """Raised by the recording ``start`` so ``main()`` stops before binding."""


@pytest.fixture(autouse=True)
def _restore_repro_logging():
    """``main()`` binds a log handler to this test's stderr; drop it after."""
    root = logging.getLogger("repro")
    saved = list(root.handlers)
    yield
    root.handlers[:] = saved


@pytest.fixture()
def pems(tmp_path, ca, host_cred):
    (tmp_path / "ca.pem").write_bytes(ca.certificate.to_pem())
    (tmp_path / "host.pem").write_bytes(host_cred.export_pem())
    return tmp_path


@pytest.fixture()
def recorded(monkeypatch):
    seen: dict = {}

    def fake_start(self, host="127.0.0.1", port=0):
        seen["policy"] = self.policy
        seen["max_connections"] = self.max_concurrent_connections
        repo = self.repository
        seen["storage"] = (
            repo.segment_max_bytes, repo.compact_ratio, repo._cache_entries,
        )
        self.stop()
        repo.close()
        raise _Stop("recorded")

    monkeypatch.setattr(MyProxyServer, "start", fake_start)
    return seen


def run(pems, *flags, config: str | None = None) -> int:
    argv = [
        "--credential", str(pems / "host.pem"),
        "--trusted-ca", str(pems / "ca.pem"),
        "--storage-dir", str(pems / "spool"),
        *flags,
    ]
    if config is not None:
        (pems / "myproxy-server.config").write_text(config, "utf-8")
        argv += ["--config", str(pems / "myproxy-server.config")]
    return myproxy_server.main(argv)


PORTAL = "/O=Grid/CN=host/portal.example.org"
PERSON = "/O=Grid/OU=People/CN=Alice"


def _allows(acl, dn: str) -> bool:
    return acl.allows(DistinguishedName.parse(dn))


#: (flags, check on the recorded ServerPolicy) — one row per directive flag
#: that lands in the policy; ``--metrics-port`` has its own test below.
POLICY_FLAGS = [
    (["--accepted-credentials", "/O=Grid/OU=People/CN=*"],
     lambda p: _allows(p.accepted_credentials, PERSON)
     and not _allows(p.accepted_credentials, PORTAL)),
    (["--authorized-retrievers", "/O=Grid/CN=host/portal.*"],
     lambda p: _allows(p.authorized_retrievers, PORTAL)
     and not _allows(p.authorized_retrievers, PERSON)),
    (["--max-stored-lifetime-days", "3"],
     lambda p: p.max_stored_lifetime == 3 * ONE_DAY),
    (["--max-delegation-lifetime-hours", "4"],
     lambda p: p.max_delegation_lifetime == 4 * ONE_HOUR),
    (["--slow-op-threshold", "0.25"], lambda p: p.slow_op_threshold == 0.25),
    (["--listen-backlog", "128"], lambda p: p.listen_backlog == 128),
    (["--connection-timeout", "12.5"], lambda p: p.connection_timeout == 12.5),
    (["--qos-rate", "10"], lambda p: p.qos_rate == 10.0),
    (["--qos-burst", "40"], lambda p: p.qos_burst == 40.0),
    (["--qos-queue-depth", "0"], lambda p: p.qos_queue_depth == 0),
    (["--qos-queue-deadline", "1.5"], lambda p: p.qos_queue_deadline == 1.5),
    (["--qos-class", "portal 8 /O=Grid/CN=host/portal.*",
      "--qos-class", "portal 8 /O=Grid/CN=host/gateway.*"],
     lambda p: [(c.name, c.weight, c.patterns) for c in p.qos_classes]
     == [("portal", 8.0, ("/O=Grid/CN=host/portal.*", "/O=Grid/CN=host/gateway.*"))]),
    (["--session-ticket-lifetime", "600"],
     lambda p: p.session_ticket_lifetime == 600.0),
    (["--disable-session-tickets"], lambda p: p.session_tickets is False),
    (["--keypair-pool", "2"], lambda p: p.keypair_pool_size == 2),
    (["--federation"], lambda p: p.federation_enabled is True),
    (["--realm-name", "alpha"], lambda p: p.realm_name == "alpha"),
]


@pytest.mark.parametrize(
    "flags,check", POLICY_FLAGS, ids=[row[0][0] for row in POLICY_FLAGS]
)
def test_directive_flag_sets_its_policy_field(pems, recorded, flags, check):
    assert run(pems, *flags) == 1
    assert check(recorded["policy"])


def test_no_flags_give_the_policy_defaults(pems, recorded):
    from repro.core.policy import ServerPolicy

    assert run(pems) == 1
    policy, default = recorded["policy"], ServerPolicy()
    for name in ("max_stored_lifetime", "max_delegation_lifetime",
                 "slow_op_threshold", "listen_backlog", "connection_timeout",
                 "qos_rate", "qos_burst", "qos_queue_depth",
                 "qos_queue_deadline", "session_ticket_lifetime",
                 "session_tickets", "keypair_pool_size", "federation_enabled",
                 "realm_name", "qos_classes"):
        assert getattr(policy, name) == getattr(default, name), name
    assert recorded["max_connections"] == 64
    assert recorded["storage"] == (32 * 1024 * 1024, 0.5, 1024)


def test_metrics_port_flag_reaches_the_exporter(pems, monkeypatch):
    seen = {}

    def fake_start(self, host="127.0.0.1", port=0):
        return host, 7512

    def fake_metrics(self, host, port):
        seen["port"] = port
        self.stop()
        self.repository.close()
        raise _Stop("recorded")

    monkeypatch.setattr(MyProxyServer, "start", fake_start)
    monkeypatch.setattr(MyProxyServer, "start_metrics_endpoint", fake_metrics)
    assert run(pems, "--metrics-port", "9513") == 1
    assert seen["port"] == 9513
    # 0 asks the kernel for a free port (perf/world.py and CI rely on it).
    assert run(pems, "--metrics-port", "0") == 1
    assert seen["port"] == 0


def test_storage_directives_reach_the_repository(pems, recorded):
    assert run(pems, config=(
        "storage_segment_max_bytes 65536\n"
        "storage_compact_ratio 0.25\n"
        "storage_cache_entries 7\n"
    )) == 1
    assert recorded["storage"] == (65536, 0.25, 7)


def test_max_connections_sets_the_worker_count(pems, recorded):
    assert run(pems, "--max-connections", "8") == 1
    assert recorded["max_connections"] == 8


def test_scalar_flag_beats_the_file(pems, recorded):
    assert run(pems, "--connection-timeout", "7",
               config="connection_timeout 12\nlisten_backlog 99\n") == 1
    assert recorded["policy"].connection_timeout == 7.0
    assert recorded["policy"].listen_backlog == 99  # the file still applies


def test_repeatable_flag_replaces_the_files_patterns(pems, recorded):
    assert run(pems, "--accepted-credentials", "/O=Grid/OU=People/CN=*",
               config='accepted_credentials "/O=Grid/CN=host/portal.*"\n') == 1
    acl = recorded["policy"].accepted_credentials
    assert acl.patterns == ("/O=Grid/OU=People/CN=*",)


#: Every directive flag that takes a number, with a value its config-file
#: directive refuses.  The flag must be refused the same way.
OUT_OF_BOUND = [
    ("--max-stored-lifetime-days", "0", "max_stored_lifetime_days"),
    ("--max-delegation-lifetime-hours", "-2", "max_delegation_lifetime_hours"),
    ("--metrics-port", "70000", "metrics_port"),
    ("--metrics-port", "-1", "metrics_port"),
    ("--slow-op-threshold", "0", "slow_op_threshold"),
    ("--listen-backlog", "0", "listen_backlog"),
    ("--connection-timeout", "-1", "connection_timeout"),
    ("--qos-rate", "0", "qos_rate"),
    ("--qos-burst", "-3", "qos_burst"),
    ("--qos-queue-depth", "-1", "qos_queue_depth"),
    ("--qos-queue-deadline", "0", "qos_queue_deadline"),
    ("--session-ticket-lifetime", "-5", "session_ticket_lifetime"),
    ("--keypair-pool", "-1", "keypair_pool"),
]


@pytest.mark.parametrize(
    "flag,value,directive", OUT_OF_BOUND,
    ids=[f"{flag}={value}" for flag, value, _ in OUT_OF_BOUND],
)
def test_out_of_bound_flag_is_refused_before_start(
    pems, recorded, capsys, flag, value, directive
):
    assert run(pems, flag, value) == 1
    assert "policy" not in recorded, "the server must not be started"
    err = capsys.readouterr().err
    assert directive in err, err


def test_malformed_qos_class_flag_is_refused(pems, recorded, capsys):
    assert run(pems, "--qos-class", "portal 8") == 1
    assert "policy" not in recorded
    assert "qos_class" in capsys.readouterr().err


def test_flag_set_is_unchanged():
    parser = myproxy_server.build_parser()
    options = sorted(o for a in parser._actions for o in a.option_strings)
    assert options == [
        "--accepted-credentials", "--audit-file", "--authorized-retrievers",
        "--config", "--connection-timeout", "--credential",
        "--disable-session-tickets", "--federation", "--federation-port",
        "--help", "--host", "--keypair-pool", "--listen-backlog",
        "--max-connections", "--max-delegation-lifetime-hours",
        "--max-stored-lifetime-days", "--metrics-port", "--port",
        "--qos-burst", "--qos-class", "--qos-queue-deadline",
        "--qos-queue-depth", "--qos-rate", "--realm-name",
        "--session-ticket-lifetime", "--slow-op-threshold", "--storage-dir",
        "--trusted-ca", "--trusted-ca-dir", "--verbose", "-h", "-v",
    ]


def test_flag_types_and_forms_are_unchanged():
    parser = myproxy_server.build_parser()
    forms = {
        a.option_strings[-1]: (
            type(a).__name__, getattr(a.type, "__name__", a.type), a.default
        )
        for a in parser._actions
    }
    assert forms == {
        "--help": ("_HelpAction", None, "==SUPPRESS=="),
        "--trusted-ca": ("_AppendAction", None, None),
        "--trusted-ca-dir": ("_StoreAction", None, None),
        "--verbose": ("_StoreTrueAction", None, False),
        "--host": ("_StoreAction", None, "127.0.0.1"),
        "--port": ("_StoreAction", "int", 7512),
        "--credential": ("_StoreAction", None, None),
        "--storage-dir": ("_StoreAction", None, None),
        "--config": ("_StoreAction", None, None),
        "--audit-file": ("_StoreAction", None, None),
        "--accepted-credentials": ("_AppendAction", None, None),
        "--authorized-retrievers": ("_AppendAction", None, None),
        "--max-stored-lifetime-days": ("_StoreAction", "float", None),
        "--max-delegation-lifetime-hours": ("_StoreAction", "float", None),
        "--metrics-port": ("_StoreAction", "int", None),
        "--slow-op-threshold": ("_StoreAction", "float", None),
        "--max-connections": ("_StoreAction", "int", 64),
        "--listen-backlog": ("_StoreAction", "int", None),
        "--connection-timeout": ("_StoreAction", "float", None),
        "--qos-rate": ("_StoreAction", "float", None),
        "--qos-burst": ("_StoreAction", "float", None),
        "--qos-queue-depth": ("_StoreAction", "int", None),
        "--qos-queue-deadline": ("_StoreAction", "float", None),
        "--qos-class": ("_AppendAction", None, None),
        "--session-ticket-lifetime": ("_StoreAction", "float", None),
        "--disable-session-tickets": ("_StoreTrueAction", None, False),
        "--keypair-pool": ("_StoreAction", "int", None),
        "--federation": ("_StoreTrueAction", None, False),
        "--federation-port": ("_StoreAction", "int", 7513),
        "--realm-name": ("_StoreAction", None, None),
    }
