"""Fuzzing the parsers that face the network.

Anything a peer can send before authentication must fail *cleanly*: a
specific error, no hang, no state corruption, and certainly no crash that
takes the server thread down.
"""

import threading

from hypothesis import HealthCheck, example, given, settings, strategies as st
import pytest

from repro.core.protocol import Request, Response
from repro.transport.handshake import server_handshake
from repro.transport.links import pipe_pair
from repro.util.errors import ProtocolError, ReproError
from repro.web.http11 import HttpParser, HttpRequest

_fuzz_settings = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestProtocolFuzz:
    @_fuzz_settings
    @given(st.binary(max_size=512))
    def test_request_decode_never_crashes(self, data):
        try:
            Request.decode(data)
        except ProtocolError:
            pass

    @_fuzz_settings
    @given(st.binary(max_size=512))
    def test_response_decode_never_crashes(self, data):
        try:
            Response.decode(data)
        except ProtocolError:
            pass

    @_fuzz_settings
    @given(st.binary(max_size=512))
    @example(b"POST /login HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n")
    @example(b"POST /login HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n")
    def test_http_request_parse_never_crashes(self, data):
        try:
            HttpRequest.parse(data)
        except ProtocolError:
            pass

    @_fuzz_settings
    @given(st.lists(st.binary(max_size=128), max_size=8))
    @example([b"POST /login HTTP/1.1\r\nContent-Length: abc\r\n\r\n"])
    @example([b"POST /login HTTP/1.1\r\nContent-Length: -5\r\n\r\n"])
    def test_http_incremental_parser_never_crashes(self, chunks):
        parser = HttpParser()
        try:
            for chunk in chunks:
                parser.feed(chunk)
                parser.next_message()
        except ProtocolError:
            pass


    @pytest.mark.parametrize("declared", ["abc", "-5"])
    def test_malformed_content_length_answers_400(self, declared):
        """The web server's one entry for a serialized request (HTTPS, the
        §6.4 gateway, CDP) answers a bad length with a 400, not a raise."""
        from repro.web.http11 import HttpResponse
        from repro.web.server import WebServer

        data = (
            "POST /login HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {declared}\r\n\r\n"
        ).encode()
        reply = HttpResponse.parse(WebServer("fuzz").answer(data))
        assert reply.status == 400


class TestHandshakeFuzz:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.binary(min_size=1, max_size=256), min_size=1, max_size=3))
    def test_server_rejects_garbage_hellos(self, host_cred_mod, validator_mod, frames):
        """Random bytes as handshake frames: the server must raise a
        ReproError promptly, never hang or crash with something else."""
        client_end, server_end = pipe_pair()
        outcome = {}

        def _serve():
            try:
                server_handshake(server_end, host_cred_mod, validator_mod)
                outcome["result"] = "accepted"
            except ReproError:
                outcome["result"] = "rejected"
            except Exception as exc:  # noqa: BLE001
                outcome["result"] = f"crashed: {type(exc).__name__}: {exc}"

        thread = threading.Thread(target=_serve)
        thread.start()
        try:
            for frame in frames:
                client_end.send_frame(frame)
        except ReproError:
            pass
        client_end.close()
        thread.join(10)
        assert not thread.is_alive(), "handshake hung on fuzz input"
        assert outcome["result"] == "rejected"


# Module-scoped PKI fixtures so the fuzz cases don't re-mint certificates.
@pytest.fixture(scope="module")
def pki_mod():
    from repro.pki.ca import CertificateAuthority
    from repro.pki.keys import PooledKeySource
    from repro.pki.names import DistinguishedName
    from repro.pki.validation import ChainValidator

    pool = PooledKeySource(1024, size=2)
    ca = CertificateAuthority(
        DistinguishedName.parse("/O=Grid/CN=Fuzz CA"), key=pool.new_key()
    )
    host = ca.issue_host_credential("fuzz.example.org", key=pool.new_key())
    return host, ChainValidator([ca.certificate])


@pytest.fixture(scope="module")
def host_cred_mod(pki_mod):
    return pki_mod[0]


@pytest.fixture(scope="module")
def validator_mod(pki_mod):
    return pki_mod[1]
