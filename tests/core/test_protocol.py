"""The MyProxy wire protocol: encode/decode, versioning, robustness."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.core.protocol import (
    FIELDS,
    MAX_BATCH_ITEMS,
    PROTOCOL_VERSION,
    AuthMethod,
    BatchItem,
    Command,
    Request,
    Response,
    parse_json,
)
from repro.util.errors import ProtocolError


class TestRequest:
    def test_roundtrip_minimal(self):
        request = Request(command=Command.GET, username="alice")
        assert Request.decode(request.encode()) == request

    def test_roundtrip_full(self):
        request = Request(
            command=Command.PUT,
            username="alice",
            passphrase="correct horse 42",
            lifetime=604800.0,
            cred_name="wallet-1",
            auth_method=AuthMethod.OTP,
            max_get_lifetime=7200.0,
            retrievers=("/O=Grid/CN=host/portal.*", "/O=Grid/CN=renewer"),
            new_passphrase="",
        )
        assert Request.decode(request.encode()) == request

    def test_version_first_on_wire(self):
        data = Request(command=Command.GET, username="u").encode()
        assert data.startswith(b"VERSION=MYPROXYv2-REPRO\n")

    def test_wrong_version_rejected(self):
        data = Request(command=Command.GET, username="u").encode()
        with pytest.raises(ProtocolError, match="version"):
            Request.decode(data.replace(b"MYPROXYv2-REPRO", b"MYPROXYv1"))

    def test_unknown_command_rejected(self):
        data = Request(command=Command.GET, username="u").encode()
        with pytest.raises(ProtocolError):
            Request.decode(data.replace(b"COMMAND=0", b"COMMAND=99"))

    def test_unknown_auth_method_rejected(self):
        data = Request(command=Command.GET, username="u").encode()
        with pytest.raises(ProtocolError):
            Request.decode(data.replace(b"AUTH_METHOD=passphrase", b"AUTH_METHOD=magic"))

    def test_empty_username_rejected(self):
        with pytest.raises(ProtocolError):
            Request(command=Command.GET, username="")

    def test_negative_lifetime_rejected(self):
        with pytest.raises(ProtocolError):
            Request(command=Command.GET, username="u", lifetime=-1.0)

    def test_passphrase_may_contain_equals_and_spaces(self):
        request = Request(
            command=Command.GET, username="u", passphrase="a=b c,d;e"
        )
        assert Request.decode(request.encode()).passphrase == "a=b c,d;e"

    def test_empty_retrievers_distinct_from_absent(self):
        present = Request(command=Command.PUT, username="u", retrievers=())
        absent = Request(command=Command.PUT, username="u", retrievers=None)
        assert Request.decode(present.encode()).retrievers == ()
        assert Request.decode(absent.encode()).retrievers is None


class TestResponse:
    def test_success_roundtrip(self):
        response = Response.success({"granted_lifetime": 7200.0})
        decoded = Response.decode(response.encode())
        assert decoded.ok and decoded.info == {"granted_lifetime": 7200.0}

    def test_failure_roundtrip(self):
        response = Response.failure("remote authorization/authentication failed")
        decoded = Response.decode(response.encode())
        assert not decoded.ok
        assert "failed" in decoded.error

    def test_error_newlines_flattened(self):
        decoded = Response.decode(Response.failure("two\nlines").encode())
        assert decoded.error == "two lines"

    def test_malformed_info_rejected(self):
        data = Response.success({"a": 1}).encode().replace(b'{"a": 1}', b"{broken")
        with pytest.raises(ProtocolError):
            Response.decode(data)

    def test_non_object_info_rejected(self):
        data = Response.success({"a": 1}).encode().replace(b'{"a": 1}', b"[1,2]")
        with pytest.raises(ProtocolError):
            Response.decode(data)

    def test_bad_response_code_rejected(self):
        data = Response.success().encode().replace(b"RESPONSE=0", b"RESPONSE=7")
        with pytest.raises(ProtocolError):
            Response.decode(data)


class TestBusyResponse:
    def test_busy_roundtrip(self):
        reply = Response.busy_reply(2.5)
        assert b"RESPONSE=2" in reply.encode()
        assert b"RETRY_AFTER=2.500" in reply.encode()
        decoded = Response.decode(reply.encode())
        assert decoded.busy
        assert not decoded.ok
        assert decoded.retry_after == 2.5
        assert decoded.error == "server busy"

    def test_busy_without_retry_after_rejected(self):
        data = Response.busy_reply(1.0).encode().replace(
            b"RETRY_AFTER=1.000\n", b""
        )
        with pytest.raises(ProtocolError, match="RETRY_AFTER"):
            Response.decode(data)

    def test_negative_retry_after_rejected(self):
        with pytest.raises(ProtocolError):
            Response.busy_reply(-1.0)
        data = Response.busy_reply(1.0).encode().replace(
            b"RETRY_AFTER=1.000", b"RETRY_AFTER=-4"
        )
        with pytest.raises(ProtocolError):
            Response.decode(data)

    def test_ordinary_responses_are_not_busy(self):
        assert not Response.success().busy
        assert not Response.failure("nope").busy


_JSON_KEYS = [f.json for f in FIELDS if f.json]
_usernames = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789._@-"),
    min_size=1,
    max_size=32,
)
_phrases = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    max_size=48,
)


_seconds = st.floats(min_value=0, max_value=1e9, allow_nan=False).map(lambda x: round(x, 3))
_globs = st.lists(
    st.sampled_from(["*", " *", "/O=Grid/CN=*", "/O=Grid/OU=Repro/CN=portal.*"]), max_size=3
).map(tuple)
_csrs = st.dictionaries(st.sampled_from(["nonce", "public_key_pem", "pop"]), _phrases)
_items = st.builds(
    BatchItem, username=_usernames, passphrase=_phrases, lifetime=_seconds,
    cred_name=_usernames, auth_method=st.sampled_from(list(AuthMethod)),
    csr=st.none() | _csrs,
)
#: A value for each field only some commands take, keyed by attribute.
_OPTIONAL = {
    "max_get_lifetime": st.none() | st.floats(-1e9, 1e9).map(lambda x: round(x, 3)),
    "retrievers": st.none() | _globs,
    "renewers": st.none() | _globs,
    "new_passphrase": _phrases,
    "batch": st.lists(_items, min_size=1, max_size=3).map(tuple),
    "csr": st.none() | _csrs,
}


@given(
    command=st.sampled_from(list(Command)),
    username=_usernames,
    passphrase=_phrases,
    lifetime=_seconds,
    cred_name=_usernames,
    auth=st.sampled_from(list(AuthMethod)),
    data=st.data(),
)
def test_property_request_roundtrip(command, username, passphrase, lifetime, cred_name, auth,
                                    data):
    # Every field its command takes is drawn, as FIELDS says.
    extra = {
        f.attr: data.draw(_OPTIONAL[f.attr], label=f.attr)
        for f in FIELDS
        if f.commands is not None and command in f.commands
    }
    assert set(_OPTIONAL) == {f.attr for f in FIELDS if f.commands is not None}
    request = Request(
        command=command,
        username=username,
        passphrase=passphrase,
        lifetime=lifetime,
        cred_name=cred_name,
        auth_method=auth,
        **extra,
    )
    assert Request.decode(request.encode()) == request
    body = parse_json(json.dumps(request.to_json()), "body")
    assert Request.from_json(body, command) == request


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_JSON_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_wire_lines = st.lists(
    st.tuples(
        st.sampled_from([f.gsi for f in FIELDS]),
        st.one_of(
            st.text(alphabet=st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
                    max_size=12),
            _json_values.map(json.dumps),
        ),
    ),
    max_size=8,
    unique_by=lambda line: line[0],
).map(lambda lines: ("VERSION=" + PROTOCOL_VERSION + "\n"
                     + "".join(f"{key}={value}\n" for key, value in lines)).encode())


@given(st.binary(max_size=256) | _wire_lines)
def test_property_any_bytes_decode_or_refuse(data):
    try:
        Request.decode(data)
    except ProtocolError:
        pass


@given(
    command=st.sampled_from(list(Command)),
    payload=st.dictionaries(st.sampled_from(_JSON_KEYS), _json_values, max_size=6),
)
def test_property_any_json_object_decodes_or_refuses(command, payload):
    try:
        Request.from_json(payload, command)
    except ProtocolError:
        pass


@pytest.mark.parametrize("lifetime", [3600, 3600.5])
def test_json_numbers_are_seconds(lifetime):
    """A seconds field takes any JSON number, int or float (but no bool)."""
    body = {"username": "u", "lifetime": lifetime}
    assert Request.from_json(body, Command.GET).lifetime == lifetime
    assert BatchItem.from_wire(body).lifetime == lifetime
    with pytest.raises(ProtocolError, match="LIFETIME"):
        Request.from_json({"username": "u", "lifetime": True}, Command.GET)


class TestBatch:
    def _item(self, name="alice"):
        return BatchItem(username=name, passphrase="pw", lifetime=3600.0)

    def test_get_multi_roundtrip(self):
        request = Request(
            command=Command.GET_MULTI,
            username="alice",
            batch=(self._item("alice"), self._item("bob")),
        )
        decoded = Request.decode(request.encode())
        assert decoded == request
        assert decoded.batch is not None and len(decoded.batch) == 2

    def test_get_multi_requires_batch(self):
        with pytest.raises(ProtocolError, match="BATCH"):
            Request(command=Command.GET_MULTI, username="alice")

    def test_batch_only_valid_with_get_multi(self):
        with pytest.raises(ProtocolError, match="BATCH"):
            Request(command=Command.GET, username="alice", batch=(self._item(),))

    def test_batch_size_capped(self):
        items = tuple(self._item(f"u{i}") for i in range(MAX_BATCH_ITEMS + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            Request(command=Command.GET_MULTI, username="u0", batch=items)

    def test_batch_item_rejects_empty_username(self):
        with pytest.raises(ProtocolError):
            BatchItem(username="")

    def test_malformed_batch_payload_rejected(self):
        data = Request(
            command=Command.GET_MULTI, username="alice", batch=(self._item(),)
        ).encode()
        broken = data.replace(b"BATCH=[", b"BATCH={")
        with pytest.raises(ProtocolError):
            Request.decode(broken)
