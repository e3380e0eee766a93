"""End-to-end exercise of the command-line tools over real TCP.

One session covers the whole original toolchain: bootstrap a CA, enroll a
user (request + sign), run myproxy-server, then init / info /
get-delegation / change-pass-phrase / destroy, plus grid-proxy-init/info.
"""

import pytest

from repro.cli import (
    grid_cert_request,
    grid_proxy_info,
    grid_proxy_init,
    myproxy_change_passphrase,
    myproxy_destroy,
    myproxy_get_delegation,
    myproxy_info,
    myproxy_init,
)
from repro.core.segments import SegmentRepository
from repro.core.server import MyProxyServer
from repro.pki.certs import Certificate
from repro.pki.credentials import Credential
from repro.pki.validation import ChainValidator

KEYPASS = "keyfile phrase 3"
MYPASS = "repository phrase 7"


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Files + a live TCP myproxy-server, shared by the module's tests."""
    root = tmp_path_factory.mktemp("cli")

    # grid-cert-request new-ca
    assert grid_cert_request.main([
        "new-ca", "--dn", "/O=Grid/CN=CLI CA", "--bits", "1024",
        "--ca-passphrase", "ca secret 5",
        "--credential-out", str(root / "ca-credential.pem"),
        "--certificate-out", str(root / "ca.pem"),
    ]) == 0

    # grid-cert-request request + sign (user enrollment)
    assert grid_cert_request.main([
        "request", "--dn", "/O=Grid/OU=CLI/CN=Alice", "--bits", "1024",
        "--key-passphrase", KEYPASS,
        "--key-out", str(root / "userkey.pem"),
        "--request-out", str(root / "alice.req"),
    ]) == 0
    assert grid_cert_request.main([
        "sign", "--ca", str(root / "ca-credential.pem"),
        "--ca-passphrase", "ca secret 5",
        "--request", str(root / "alice.req"),
        "--cert-out", str(root / "usercert.pem"),
    ]) == 0

    # Assemble the user credential file (cert + encrypted key).
    usercred = root / "usercred.pem"
    usercred.write_bytes(
        (root / "usercert.pem").read_bytes() + (root / "userkey.pem").read_bytes()
    )
    usercred.chmod(0o600)

    # Start a repository server in-process on a random TCP port.
    ca_cert = Certificate.list_from_pem((root / "ca.pem").read_bytes())[0]
    server_cred_file = root / "myproxy-cred.pem"
    ca_credential = Credential.import_pem(
        (root / "ca-credential.pem").read_bytes(), "ca secret 5"
    )
    from repro.pki.keys import KeyPair
    from repro.pki.names import DistinguishedName
    from repro.pki.certs import build_certificate
    import time

    host_key = KeyPair.generate(1024)
    now = time.time()
    host_cert = build_certificate(
        subject=DistinguishedName.parse("/O=Grid/CN=host/myproxy.cli"),
        issuer=ca_cert.subject,
        subject_public_key=host_key.public,
        signing_key=ca_credential.require_key(),
        serial=4242,
        not_before=now - 300,
        not_after=now + 86400,
    )
    server_cred = Credential(certificate=host_cert, key=host_key)
    server_cred_file.write_bytes(server_cred.export_pem())
    server_cred_file.chmod(0o600)

    server = MyProxyServer(
        server_cred,
        ChainValidator([ca_cert]),
        repository=SegmentRepository(root / "store"),
    )
    host, port = server.start()
    yield {
        "root": root,
        "server": server,
        "endpoint": f"{host}:{port}",
        "ca": str(root / "ca.pem"),
        "usercred": str(usercred),
    }
    server.stop()


class TestEnrollment:
    def test_generated_key_is_encrypted(self, world):
        key_pem = (world["root"] / "userkey.pem").read_bytes()
        assert b"ENCRYPTED PRIVATE KEY" in key_pem

    def test_user_credential_loads_with_passphrase(self, world):
        cred = Credential.import_pem(
            (world["root"] / "usercred.pem").read_bytes(), KEYPASS
        )
        assert str(cred.subject) == "/O=Grid/OU=CLI/CN=Alice"


class TestProxyTools:
    def test_grid_proxy_init_and_info(self, world, capsys):
        out = world["root"] / "x509up_test"
        assert grid_proxy_init.main([
            "--credential", world["usercred"], "--key-passphrase", KEYPASS,
            "--hours", "6", "-o", str(out),
        ]) == 0
        assert (out.stat().st_mode & 0o777) == 0o600
        assert grid_proxy_info.main([str(out)]) == 0
        captured = capsys.readouterr().out
        assert "/O=Grid/OU=CLI/CN=Alice/CN=proxy" in captured
        assert "full" in captured

    def test_restricted_limited_proxy(self, world, capsys):
        out = world["root"] / "x509up_restricted"
        assert grid_proxy_init.main([
            "--credential", world["usercred"], "--key-passphrase", KEYPASS,
            "--limited", "--operation", "store", "-o", str(out),
        ]) == 0
        grid_proxy_info.main([str(out)])
        captured = capsys.readouterr().out
        assert "limited" in captured and "store" in captured


class TestMyProxyTools:
    def test_init_info_get_change_destroy_cycle(self, world, capsys, tmp_path):
        base = [
            "-s", world["endpoint"], "--trusted-ca", world["ca"],
            "--credential", world["usercred"], "--key-passphrase", KEYPASS,
            "-l", "alice",
        ]
        # myproxy-init
        assert myproxy_init.main(base + ["--passphrase", MYPASS]) == 0
        assert "delegated" in capsys.readouterr().out

        # myproxy-info
        assert myproxy_info.main(base) == 0
        assert "default" in capsys.readouterr().out

        # myproxy-get-delegation (as the same identity; ACLs are open)
        proxy_out = tmp_path / "delegated.pem"
        assert myproxy_get_delegation.main([
            "-s", world["endpoint"], "--trusted-ca", world["ca"],
            "--credential", world["usercred"], "--key-passphrase", KEYPASS,
            "-l", "alice", "--passphrase", MYPASS,
            "-t", "1", "-o", str(proxy_out),
        ]) == 0
        delegated = Credential.import_pem(proxy_out.read_bytes())
        assert str(delegated.identity) == "/O=Grid/OU=CLI/CN=Alice"

        # myproxy-change-pass-phrase
        assert myproxy_change_passphrase.main(base + [
            "--old-passphrase", MYPASS, "--new-passphrase", "rotated phrase 9",
        ]) == 0
        # Old pass phrase now fails (exit code 1, error on stderr).
        assert myproxy_get_delegation.main([
            "-s", world["endpoint"], "--trusted-ca", world["ca"],
            "--credential", world["usercred"], "--key-passphrase", KEYPASS,
            "-l", "alice", "--passphrase", MYPASS,
            "-o", str(tmp_path / "nope.pem"),
        ]) == 1
        assert "error" in capsys.readouterr().err

        # myproxy-destroy
        assert myproxy_destroy.main(base) == 0
        assert world["server"].repository.count() == 0

    def test_get_delegation_needs_valid_server(self, world, tmp_path, capsys):
        assert myproxy_get_delegation.main([
            "-s", "127.0.0.1:1", "--trusted-ca", world["ca"],
            "--credential", world["usercred"], "--key-passphrase", KEYPASS,
            "-l", "alice", "--passphrase", MYPASS,
            "-o", str(tmp_path / "x.pem"),
        ]) == 1
        assert "error" in capsys.readouterr().err

    def test_loading_key_with_wrong_passphrase_fails(self, world, capsys):
        assert myproxy_info.main([
            "-s", world["endpoint"], "--trusted-ca", world["ca"],
            "--credential", world["usercred"], "--key-passphrase", "wrong",
            "-l", "alice",
        ]) == 1


class TestProxyDestroy:
    def test_destroy_zeroizes_and_removes(self, world, tmp_path, capsys):
        from repro.cli import grid_proxy_destroy

        out = tmp_path / "x509up_doomed"
        assert grid_proxy_init.main([
            "--credential", world["usercred"], "--key-passphrase", KEYPASS,
            "-o", str(out),
        ]) == 0
        assert grid_proxy_destroy.main([str(out)]) == 0
        assert "destroyed" in capsys.readouterr().out
        assert not out.exists()

    def test_destroy_missing_file_is_gentle(self, tmp_path, capsys):
        from repro.cli import grid_proxy_destroy

        assert grid_proxy_destroy.main([str(tmp_path / "ghost")]) == 0
        assert "no such file" in capsys.readouterr().out
