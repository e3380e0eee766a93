"""Failure injection: connections that die mid-protocol, hostile inputs.

A credential repository must stay consistent when clients vanish at the
worst moments — especially between the OK response and the delegation
(no half-stored credentials), and while holding an OTP chain (no replayable
state left behind).
"""

import threading

import pytest

from repro.core.protocol import Command, Request, Response
from repro.transport.channel import connect_secure
from repro.transport.links import pipe_pair
from repro.util.concurrency import wait_for
from repro.util.errors import ReproError

PASS = "correct horse 42"


def server_channel(tb, credential):
    """A raw authenticated channel to the repository, for manual driving."""
    return connect_secure(
        tb.myproxy_targets["repo-0"](), credential, tb.validator
    )


class TestDroppedConnections:
    def test_client_vanishes_after_put_request(self, tb):
        """Disconnect right after the OK, before delegating: nothing stored."""
        alice = tb.new_user("alice")
        channel = server_channel(tb, alice.credential)
        request = Request(command=Command.PUT, username="alice",
                          passphrase=PASS, lifetime=86400.0)
        channel.send(request.encode())
        assert Response.decode(channel.recv()).ok
        channel.close()  # vanish mid-delegation
        wait_for(lambda: tb.myproxy.stats.connections >= 1, message="server saw us")
        assert tb.myproxy.repository.count() == 0

    def test_client_vanishes_mid_delegation(self, tb):
        """Disconnect after the delegation offer: still nothing stored."""
        from repro.util.encoding import pack_fields

        alice = tb.new_user("alice")
        channel = server_channel(tb, alice.credential)
        request = Request(command=Command.PUT, username="alice",
                          passphrase=PASS, lifetime=86400.0)
        channel.send(request.encode())
        assert Response.decode(channel.recv()).ok
        channel.send(pack_fields([b"DG1", b"3600.000", b"0", b"\0" * 32]))
        channel.recv()  # the server's key/CSR answer
        channel.close()  # vanish before issuing the certificate
        assert tb.myproxy.repository.count() == 0

    def test_server_survives_a_burst_of_dead_connections(self, tb):
        alice = tb.new_user("alice")
        for _ in range(10):
            channel = server_channel(tb, alice.credential)
            channel.close()
        # Full service still available afterwards:
        assert tb.myproxy_init(alice, passphrase=PASS).ok

    def test_get_failure_after_otp_advance_does_not_enable_replay(self, tb, key_pool, clock):
        """The OTP counter moves *before* delegation, so a connection that
        dies mid-GET has still consumed the word — by design."""
        from repro.core.otp import OTPGenerator
        from repro.core.protocol import AuthMethod
        from repro.pki.proxy import create_proxy
        from repro.util.errors import AuthenticationError

        user = tb.new_user("otto")
        gen = OTPGenerator("s", "x", count=6)
        proxy = create_proxy(user.credential, lifetime=7 * 86400,
                             key_source=key_pool, clock=clock)
        tb.myproxy_client(user.credential).put(
            proxy, username="otto", auth_method=AuthMethod.OTP, otp=gen,
            lifetime=7 * 86400,
        )
        word = gen.next_word()
        channel = server_channel(tb, user.credential)
        channel.send(
            Request(command=Command.GET, username="otto", passphrase=word,
                    auth_method=AuthMethod.OTP).encode()
        )
        assert Response.decode(channel.recv()).ok
        channel.close()  # die before accepting the delegation

        # Replaying the same word now fails; the next word works.
        with pytest.raises(AuthenticationError):
            tb.myproxy_client(user.credential).get_delegation(
                username="otto", passphrase=word, auth_method=AuthMethod.OTP
            )
        assert tb.myproxy_client(user.credential).get_delegation(
            username="otto", passphrase=gen.next_word(), auth_method=AuthMethod.OTP
        ).has_key


class TestHostileMessages:
    def test_garbage_instead_of_request(self, tb):
        alice = tb.new_user("alice")
        channel = server_channel(tb, alice.credential)
        channel.send(b"\xff\xfe not a protocol message")
        response = Response.decode(channel.recv())
        assert not response.ok and "bad request" in response.error

    def test_wrong_version_refused(self, tb):
        alice = tb.new_user("alice")
        channel = server_channel(tb, alice.credential)
        data = Request(command=Command.GET, username="alice", passphrase="x" * 8)
        channel.send(data.encode().replace(b"MYPROXYv2-REPRO", b"MYPROXYv9"))
        response = Response.decode(channel.recv())
        assert not response.ok

    def test_huge_declared_frame_refused_cheaply(self, tb):
        """A hostile 4 GiB length prefix must not allocate 4 GiB."""
        from repro.transport.links import pipe_pair

        client_end, server_end = pipe_pair()
        thread = threading.Thread(
            target=tb.myproxy.handle_link, args=(server_end,), daemon=True
        )
        thread.start()
        client_end.send_frame(b"\x01" * 10)  # junk "handshake"
        thread.join(10)
        assert not thread.is_alive()
        assert tb.myproxy.stats.handshake_failures >= 1

    def test_unknown_delegation_message_mid_put(self, tb):
        alice = tb.new_user("alice")
        channel = server_channel(tb, alice.credential)
        channel.send(
            Request(command=Command.PUT, username="alice", passphrase=PASS,
                    lifetime=3600.0).encode()
        )
        assert Response.decode(channel.recv()).ok
        from repro.util.encoding import pack_fields

        channel.send(pack_fields([b"WAT", b"?"]))
        # The server tears the conversation down without storing anything.
        with pytest.raises(ReproError):
            while True:
                channel.recv()
        assert tb.myproxy.repository.count() == 0


class TestRepositoryCrashConsistency:
    def test_torn_write_leaves_old_entry_intact(self, tmp_path):
        """Append-only: a crash mid-PUT must not corrupt the entry."""
        from repro.core.segments import SegmentRepository
        from tests.core.test_repository import entry

        repo = SegmentRepository(tmp_path / "store")
        repo.put(entry(not_after=111.0))
        repo.close()
        # Simulate a crash that left half a record frame behind mid-write.
        [segment] = (tmp_path / "store").glob("seg-*.mps")
        with open(segment, "ab") as fh:
            fh.write(b"%MPF1 900 12345\nP half-writ")
        repo = SegmentRepository(tmp_path / "store")
        fetched = repo.get("alice", "default")
        assert fetched.not_after == 111.0
        # And the store still lists exactly one logical entry.
        assert repo.count() == 1
        assert repo.quarantined() == []
        repo.close()

    def test_concurrent_puts_and_gets(self, tmp_path):
        from repro.core.segments import SegmentRepository
        from tests.core.test_repository import entry

        repo = SegmentRepository(tmp_path / "store")
        repo.put(entry())
        errors = []

        def hammer(i):
            try:
                for n in range(20):
                    repo.put(entry(not_after=float(n)))
                    repo.get("alice", "default")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert errors == []
        assert repo.count() == 1
