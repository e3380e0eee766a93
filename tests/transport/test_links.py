"""Frame links: pipes, sockets, taps, bounds."""

import socket
import threading

import pytest

from repro.transport.links import MAX_FRAME, SocketLink, connect_tcp, pipe_pair
from repro.util.errors import TransportError


class TestPipeLink:
    def test_frames_arrive_in_order(self):
        a, b = pipe_pair()
        a.send_frame(b"one")
        a.send_frame(b"two")
        assert b.recv_frame() == b"one"
        assert b.recv_frame() == b"two"

    def test_bidirectional(self):
        a, b = pipe_pair()
        a.send_frame(b"ping")
        assert b.recv_frame() == b"ping"
        b.send_frame(b"pong")
        assert a.recv_frame() == b"pong"

    def test_close_signals_peer(self):
        a, b = pipe_pair()
        a.close()
        with pytest.raises(TransportError, match="closed"):
            b.recv_frame(timeout=1.0)

    def test_send_after_close_raises(self):
        a, _b = pipe_pair()
        a.close()
        with pytest.raises(TransportError):
            a.send_frame(b"late")

    def test_recv_timeout(self):
        a, _b = pipe_pair()
        with pytest.raises(TransportError, match="timed out"):
            a.recv_frame(timeout=0.05)

    def test_taps_observe_traffic(self):
        from repro.attacks.eavesdrop import WireCapture

        a, b = pipe_pair()
        capture = WireCapture()
        tapped = capture.tap(a)
        tapped.send_frame(b"secret bytes")
        assert capture.frames_to_server == [b"secret bytes"]
        assert b.recv_frame() == b"secret bytes"
        b.send_frame(b"reply")
        assert tapped.recv_frame() == b"reply"
        assert capture.frames_to_client == [b"reply"]


class TestSocketLink:
    @pytest.fixture()
    def connected_pair(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        host, port = server.getsockname()
        results = {}

        def _accept():
            conn, _ = server.accept()
            results["server"] = SocketLink(conn)

        thread = threading.Thread(target=_accept)
        thread.start()
        client = connect_tcp(host, port)
        thread.join(5)
        server.close()
        yield client, results["server"]
        client.close()
        results["server"].close()

    def test_roundtrip(self, connected_pair):
        client, server = connected_pair
        client.send_frame(b"hello over tcp")
        assert server.recv_frame() == b"hello over tcp"
        server.send_frame(b"and back")
        assert client.recv_frame() == b"and back"

    def test_large_frame(self, connected_pair):
        client, server = connected_pair
        payload = bytes(range(256)) * 4096  # 1 MiB
        client.send_frame(payload)
        assert server.recv_frame() == payload

    def test_peer_close_raises(self, connected_pair):
        client, server = connected_pair
        server.close()
        with pytest.raises(TransportError):
            client.recv_frame()

    def test_oversized_send_refused(self, connected_pair):
        client, _server = connected_pair
        with pytest.raises(TransportError):
            client.send_frame(b"\0" * (MAX_FRAME + 1))

    def test_connect_refused_wrapped(self):
        with pytest.raises(TransportError):
            connect_tcp("127.0.0.1", 1, timeout=0.5)  # port 1: nothing there
