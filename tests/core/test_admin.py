"""Repository administration and grooming."""

import pytest

from repro.core.admin import MaintenanceAgent, RepositoryAdmin
from repro.pki.proxy import create_proxy

PASS = "correct horse 42"


@pytest.fixture()
def populated(tb, clock, key_pool):
    """Three users; one credential expires quickly."""
    for name, lifetime in (("alice", 7 * 86400), ("bob", 3600), ("carol", 86400)):
        user = tb.new_user(name)
        proxy = create_proxy(user.credential, lifetime=lifetime,
                             key_source=key_pool, clock=clock)
        tb.myproxy_client(user.credential).put(
            proxy, username=name, passphrase=PASS, lifetime=lifetime
        )
    # alice keeps a long-term entry too
    tb.myproxy_client(tb.users["alice"].credential).store_longterm(
        tb.users["alice"].credential, username="alice",
        passphrase=PASS, cred_name="longterm",
    )
    return tb, RepositoryAdmin(tb.myproxy.repository, clock=clock)


class TestQueries:
    def test_list_all(self, populated):
        _, admin = populated
        rows = admin.list_all()
        assert len(rows) == 4
        assert [r.username for r in rows] == ["alice", "alice", "bob", "carol"]

    def test_admin_sees_metadata_not_secrets(self, populated):
        _, admin = populated
        for row in admin.list_all():
            text = str(row)
            assert PASS not in text
            assert "PRIVATE KEY" not in text

    def test_stats(self, populated):
        _, admin = populated
        stats = admin.stats()
        assert stats["entries"] == 4
        assert stats["users"] == 3
        assert stats["long_term"] == 1
        assert stats["by_auth_method"] == {"passphrase": 4}

    def test_expiring_within(self, populated, clock):
        _, admin = populated
        soon = admin.list_expiring_within(2 * 3600)
        assert [r.username for r in soon] == ["bob"]

    def test_list_expired(self, populated, clock):
        _, admin = populated
        assert admin.list_expired() == []
        clock.advance(3700)
        assert [r.username for r in admin.list_expired()] == ["bob"]


class TestPurge:
    def test_purge_removes_only_expired(self, populated, clock):
        tb, admin = populated
        clock.advance(3700)
        removed = admin.purge_expired()
        assert [r.username for r in removed] == ["bob"]
        assert tb.myproxy.repository.count() == 3

    def test_grace_period_respected(self, populated, clock):
        _, admin = populated
        clock.advance(3700)  # bob dead for 100s
        assert admin.purge_expired(grace=3600.0) == []
        clock.advance(3600)
        assert len(admin.purge_expired(grace=3600.0)) == 1

    def test_purged_entry_gone_for_clients(self, populated, clock):
        from repro.util.errors import AuthenticationError

        tb, admin = populated
        clock.advance(3700)
        admin.purge_expired()
        requester = tb.new_user("req")
        with pytest.raises(AuthenticationError):
            tb.myproxy_get(username="bob", passphrase=PASS,
                           requester=requester.credential)

    def test_remove_user(self, populated):
        tb, admin = populated
        assert admin.remove_user("alice") == 2
        assert tb.myproxy.repository.count() == 2
        assert admin.remove_user("alice") == 0


class TestMaintenanceAgent:
    def test_run_once_counts(self, populated, clock):
        _, admin = populated
        agent = MaintenanceAgent(admin, purge_grace=0.0)
        assert agent.run_once() == 0
        clock.advance(3700)
        assert agent.run_once() == 1
        assert agent.purged_total == 1


class TestAdminCli:
    @pytest.fixture()
    def spool(self, tmp_path, key_pool):
        """A segment-backed testbed so the CLI can inspect the store."""
        from repro.core.segments import SegmentRepository
        from repro.core.server import MyProxyServer
        from repro.pki.ca import CertificateAuthority
        from repro.pki.names import DistinguishedName
        from repro.pki.validation import ChainValidator
        from repro.core.client import MyProxyClient, myproxy_init_from_longterm

        ca = CertificateAuthority(
            DistinguishedName.parse("/O=Grid/CN=Admin CA"), key=key_pool.new_key()
        )
        validator = ChainValidator([ca.certificate])
        server = MyProxyServer(
            ca.issue_host_credential("mp.example.org", key=key_pool.new_key()),
            validator,
            repository=SegmentRepository(tmp_path / "store"),
            key_source=key_pool,
        )
        endpoint = server.start()
        alice = ca.issue_credential(
            DistinguishedName.grid_user("Grid", "Admin", "Alice"),
            key=key_pool.new_key(),
        )
        client = MyProxyClient(endpoint, alice, validator, key_source=key_pool)
        myproxy_init_from_longterm(
            client, alice, username="alice", passphrase=PASS, key_source=key_pool
        )
        server.stop()
        server.repository.close()
        return tmp_path / "store"

    def test_query_and_stats(self, spool, capsys):
        from repro.cli.myproxy_admin import main

        assert main(["--storage-dir", str(spool), "query"]) == 0
        out = capsys.readouterr().out
        assert "alice/default" in out and "proxy" in out
        assert main(["--storage-dir", str(spool), "stats"]) == 0
        assert "entries: 1" in capsys.readouterr().out

    def test_remove_user_cli(self, spool, capsys):
        from repro.cli.myproxy_admin import main

        assert main(["--storage-dir", str(spool), "remove-user", "-l", "alice"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["--storage-dir", str(spool), "query"]) == 0
        assert "no matching credentials" in capsys.readouterr().out

    def test_purge_cli_with_nothing_expired(self, spool, capsys):
        from repro.cli.myproxy_admin import main

        assert main(["--storage-dir", str(spool), "purge"]) == 0
        assert "purged 0" in capsys.readouterr().out
