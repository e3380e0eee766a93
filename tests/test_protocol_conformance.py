"""PROTOCOL.md conformance: byte-level facts the specification promises.

These tests pin the wire constants — if an implementation change breaks
interoperability with the documented protocol, it fails here first, and
PROTOCOL.md must be updated deliberately.
"""

import struct



class TestFrameSpec:
    def test_frame_header_is_4_byte_big_endian(self):
        from repro.transport.links import pipe_pair

        a, b = pipe_pair()
        a.send_frame(b"hello")
        # Pipe links carry whole frames; the TCP header format is the spec:
        assert struct.pack(">I", 5) == (5).to_bytes(4, "big")
        assert b.recv_frame() == b"hello"

    def test_frame_limit_is_64_mib(self):
        from repro.transport.links import MAX_FRAME

        assert MAX_FRAME == 64 * 1024 * 1024

    def test_field_limit_is_16_mib(self):
        from repro.util.encoding import MAX_FIELD

        assert MAX_FIELD == 16 * 1024 * 1024


class TestHandshakeSpec:
    def test_version_string(self):
        from repro.transport.handshake import PROTOCOL_VERSION

        assert PROTOCOL_VERSION == b"GSIv1"

    def test_randoms_are_32_bytes_pre_master_48(self):
        from repro.transport.kdf import PRE_MASTER_LEN, RANDOM_LEN

        assert RANDOM_LEN == 32
        assert PRE_MASTER_LEN == 48

    def test_hkdf_info_string(self):
        import repro.transport.kdf as kdf

        assert kdf._INFO == b"repro-gsi-secure-conversation-v1"

    def test_key_schedule_layout(self):
        from repro.transport.kdf import derive_session_keys

        keys = derive_session_keys(b"\x01" * 48, b"\x02" * 32, b"\x03" * 32)
        assert len(keys.client_write_key) == 16
        assert len(keys.server_write_key) == 16
        assert len(keys.client_iv_salt) == 12
        assert len(keys.server_iv_salt) == 12
        assert len(keys.client_finished_key) == 32
        assert len(keys.server_finished_key) == 32

    def test_finished_labels(self):
        import repro.transport.handshake as hs

        assert hs._LABEL_CLIENT == b"client finished"
        assert hs._LABEL_SERVER == b"server finished"

    def test_message_type_tags(self):
        import repro.transport.handshake as hs

        assert (hs._T_CLIENT_HELLO, hs._T_SERVER_HELLO) == (b"CH", b"SH")
        assert (hs._T_SERVER_VERIFY, hs._T_KEY_EXCHANGE) == (b"SV", b"KX")
        assert (hs._T_CLIENT_VERIFY, hs._T_FINISHED, hs._T_FAILURE) == (
            b"CV", b"FN", b"HF",
        )


class TestResumptionSpec:
    def test_resume_hkdf_info_string(self):
        import repro.transport.kdf as kdf

        assert kdf._RESUME_INFO == b"repro-gsi-session-resumption-v1"

    def test_ticket_secret_is_pre_master_sized(self):
        from repro.transport.kdf import PRE_MASTER_LEN
        from repro.transport.tickets import TICKET_SECRET_LEN

        assert TICKET_SECRET_LEN == PRE_MASTER_LEN == 48

    def test_resumption_message_tags(self):
        import repro.transport.handshake as hs

        assert hs._T_SERVER_RESUME == b"SR"
        assert hs._T_NEW_TICKET == b"NT"
        assert hs._TICKET_OFFERED == b"1"

    def test_ticket_blob_layout(self):
        import repro.transport.tickets as tk

        assert tk._KEY_ID_LEN == 8
        assert tk._NONCE_LEN == 12
        assert tk._STEK_LEN == 16

    def test_resumed_key_schedule_differs_from_full(self):
        from repro.transport.kdf import derive_resumed_keys, derive_session_keys

        full = derive_session_keys(b"\x01" * 48, b"\x02" * 32, b"\x03" * 32)
        resumed = derive_resumed_keys(b"\x01" * 48, b"\x02" * 32, b"\x03" * 32)
        assert len(resumed.client_write_key) == 16
        assert len(resumed.server_finished_key) == 32
        # Same inputs, different info label — must not collide with the
        # full-handshake schedule.
        assert resumed.client_write_key != full.client_write_key


class TestRecordSpec:
    def test_content_types(self):
        from repro.transport.records import ContentType

        assert ContentType.HANDSHAKE == 1
        assert ContentType.DATA == 2
        assert ContentType.ALERT == 3

    def test_record_layout_type_byte_then_ciphertext(self):
        from repro.transport.records import ContentType, RecordWriter

        writer = RecordWriter(bytes(16), bytes(12))
        record = writer.seal(ContentType.DATA, b"x")
        assert record[0] == 2
        assert len(record) == 1 + 1 + 16  # type + 1 plaintext byte + GCM tag

    def test_close_alert_body(self):
        import repro.transport.channel as ch

        assert ch._ALERT_CLOSE == b"close notify"


class TestDelegationSpec:
    def test_type_tags_and_pop_label(self):
        import repro.transport.delegation as dg

        assert (dg._T_OFFER, dg._T_REQUEST, dg._T_ISSUE) == (b"DG1", b"DG2", b"DG3")
        assert dg._POP_LABEL == b"gsi-delegation-proof-of-possession-v1"


class TestMyProxySpec:
    def test_version_string(self):
        from repro.core.protocol import PROTOCOL_VERSION

        assert PROTOCOL_VERSION == "MYPROXYv2-REPRO"

    def test_command_codes(self):
        from repro.core.protocol import Command

        assert [int(c) for c in Command] == [0, 1, 2, 3, 4, 5, 6, 7, 8]
        assert Command.GET == 0 and Command.PUT == 1
        assert Command.TRUSTROOTS == 7
        assert Command.GET_MULTI == 8

    def test_auth_method_strings(self):
        from repro.core.protocol import AuthMethod

        assert {m.value for m in AuthMethod} == {
            "passphrase", "otp", "site", "renewal",
        }

    def test_generic_denial_string(self):
        import repro.core.server as server

        assert server._GENERIC_DENIAL == "remote authorization/authentication failed"

    def test_version_line_first_on_wire(self):
        from repro.core.protocol import Command, Request

        data = Request(command=Command.GET, username="u").encode()
        assert data.split(b"\n")[0] == b"VERSION=MYPROXYv2-REPRO"


class TestPkiSpec:
    def test_restrictions_oid(self):
        from repro.pki.certs import RESTRICTIONS_OID

        assert RESTRICTIONS_OID.dotted_string == "1.3.6.1.4.1.57264.99.1"

    def test_proxy_cn_values(self):
        from repro.pki.names import LIMITED_PROXY_CN, PROXY_CN

        assert PROXY_CN == "proxy"
        assert LIMITED_PROXY_CN == "limited proxy"

    def test_clock_skew_is_300s(self):
        from repro.pki.certs import CLOCK_SKEW

        assert CLOCK_SKEW == 300.0

    def test_otp_words_are_16_bytes(self):
        from repro.core.otp import OTPGenerator

        word = OTPGenerator("s", "x", count=3).next_word()
        assert len(bytes.fromhex(word)) == 16


class TestHttpBindingSpec:
    def test_pop_label_and_session_ttl(self):
        import repro.core.httpbinding as hb

        assert hb._POP_LABEL == b"myproxy-http-binding-pop-v1"
        assert hb.PUT_SESSION_TTL == 120.0

    def test_endpoint_paths(self, tb):
        from repro.core.httpbinding import MyProxyHttpGateway

        gateway = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)
        paths = {path for (_method, path) in gateway.web._routes}
        assert paths == {
            "/myproxy/get",
            "/myproxy/put/begin",
            "/myproxy/put/complete",
            "/myproxy/info",
            "/myproxy/destroy",
            "/myproxy/change-passphrase",
        }
