"""The persistent audit trail and its admin inspection tooling."""

import pytest

from repro.core.server import AuditRecord, MyProxyServer
from repro.util.errors import AuthenticationError

PASS = "correct horse 42"


@pytest.fixture()
def audited(tmp_path, key_pool, clock):
    """A testbed-like world whose server writes a JSONL audit file."""
    from repro.core.client import MyProxyClient, myproxy_init_from_longterm
    from repro.pki.ca import CertificateAuthority
    from repro.pki.names import DistinguishedName
    from repro.pki.validation import ChainValidator

    audit_file = tmp_path / "audit.jsonl"
    ca = CertificateAuthority(
        DistinguishedName.parse("/O=Grid/CN=Audit CA"), clock=clock,
        key=key_pool.new_key(),
    )
    validator = ChainValidator([ca.certificate], clock=clock)
    server = MyProxyServer(
        ca.issue_host_credential("audit.example.org", key=key_pool.new_key()),
        validator,
        clock=clock,
        key_source=key_pool,
        audit_path=str(audit_file),
    )

    alice = ca.issue_credential(
        DistinguishedName.grid_user("Grid", "Audit", "Alice"),
        key=key_pool.new_key(),
    )
    client = MyProxyClient(server.connect, alice, validator, clock=clock,
                           key_source=key_pool)
    myproxy_init_from_longterm(client, alice, username="alice",
                               passphrase=PASS, key_source=key_pool)
    with pytest.raises(AuthenticationError):
        client.get_delegation(username="alice", passphrase="wrong!")
    client.get_delegation(username="alice", passphrase=PASS)
    with server:
        yield audit_file, server


class TestPersistence:
    def test_records_survive_on_disk(self, audited):
        from repro.util.concurrency import wait_for

        audit_file, server = audited
        # The final GET's audit line is written by the server thread just
        # after the client's delegation completes — wait for it to land.
        wait_for(
            lambda: sum(
                1 for l in audit_file.read_text().splitlines() if l.strip()
            ) >= 3,
            timeout=5.0,
            message="audit lines on disk",
        )
        lines = [l for l in audit_file.read_text().splitlines() if l.strip()]
        records = [AuditRecord.from_json(line) for line in lines]
        assert records == server.audit_log()
        commands = [r.command for r in records]
        assert "PUT" in commands and "GET" in commands
        assert any(not r.ok for r in records)

    def test_file_mode_0600(self, audited):
        audit_file, _ = audited
        assert (audit_file.stat().st_mode & 0o777) == 0o600

    def test_record_json_roundtrip(self):
        record = AuditRecord(at=1.5, peer="/O=X/CN=Y", command="GET",
                             username="u", cred_name="default", ok=False,
                             detail="wrong pass phrase")
        assert AuditRecord.from_json(record.to_json()) == record


class TestAdminAuditCli:
    def test_audit_listing_and_filters(self, audited, capsys):
        from repro.cli.myproxy_admin import main

        audit_file, _ = audited
        assert main(["audit", "--audit-file", str(audit_file)]) == 0
        out = capsys.readouterr().out
        assert "PUT" in out and "GET" in out and "DENY" in out

        assert main(["audit", "--audit-file", str(audit_file),
                     "--failures-only"]) == 0
        out = capsys.readouterr().out
        assert "DENY" in out and "OK " not in out

        assert main(["audit", "--audit-file", str(audit_file),
                     "-l", "nobody"]) == 0
        assert "no matching" in capsys.readouterr().out

    def test_tail_limits_output(self, audited, capsys):
        from repro.cli.myproxy_admin import main

        audit_file, server = audited
        assert main(["audit", "--audit-file", str(audit_file),
                     "--tail", "1"]) == 0
        out = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(out) == 1

    def test_non_audit_commands_still_need_storage_dir(self, capsys):
        from repro.cli.myproxy_admin import main

        with pytest.raises(SystemExit):
            main(["query"])
