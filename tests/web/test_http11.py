"""HTTP message model: parsing, cookies, forms, incremental parser."""

import pytest
from hypothesis import given, strategies as st

from repro.util.errors import ProtocolError
from repro.web.http11 import HttpParser, HttpRequest, HttpResponse


class TestRequest:
    def test_serialize_parse_roundtrip(self):
        request = HttpRequest.get("/portal?tab=jobs", Accept="text/html")
        parsed = HttpRequest.parse(request.serialize())
        assert parsed.method == "GET"
        assert parsed.path == "/portal"
        assert parsed.query == {"tab": "jobs"}
        assert parsed.header("accept") == "text/html"

    def test_form_post_roundtrip(self):
        request = HttpRequest.post_form("/login", {"username": "alice", "passphrase": "a b&c=d"})
        parsed = HttpRequest.parse(request.serialize())
        assert parsed.form == {"username": "alice", "passphrase": "a b&c=d"}

    def test_cookies_parsed(self):
        request = HttpRequest.get("/", Cookie="SID=abc; theme=dark")
        assert request.cookies == {"SID": "abc", "theme": "dark"}

    def test_form_requires_urlencoded_content_type(self):
        request = HttpRequest("POST", "/x", headers=[("Content-Type", "text/plain")],
                              body=b"a=b")
        assert request.form == {}

    def test_content_length_mismatch_rejected(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"
        with pytest.raises(ProtocolError):
            HttpRequest.parse(raw)

    def test_malformed_request_line_rejected(self):
        with pytest.raises(ProtocolError):
            HttpRequest.parse(b"NOT-HTTP\r\n\r\n")

    def test_header_injection_via_target_rejected(self):
        evil = HttpRequest("GET", "/x HTTP/1.1\r\nHost: evil")
        with pytest.raises(ProtocolError):
            evil.serialize()

    def test_missing_terminator_rejected(self):
        with pytest.raises(ProtocolError):
            HttpRequest.parse(b"GET / HTTP/1.1\r\nHost: x")


class TestResponse:
    def test_roundtrip(self):
        response = HttpResponse.html("<h1>hello</h1>")
        parsed = HttpResponse.parse(response.serialize())
        assert parsed.status == 200
        assert parsed.text == "<h1>hello</h1>"
        assert "text/html" in parsed.header("content-type")

    def test_redirect(self):
        response = HttpResponse.redirect("/portal")
        parsed = HttpResponse.parse(response.serialize())
        assert parsed.status == 303
        assert parsed.header("Location") == "/portal"

    def test_set_cookie_roundtrip(self):
        response = HttpResponse.html("x")
        response.set_cookie("SID", "token123")
        parsed = HttpResponse.parse(response.serialize())
        assert parsed.set_cookies == {"SID": "token123"}

    def test_error_page(self):
        parsed = HttpResponse.parse(HttpResponse.error(404, "nope").serialize())
        assert parsed.status == 404 and "nope" in parsed.text


class TestIncrementalParser:
    def test_single_request_in_chunks(self):
        raw = HttpRequest.post_form("/login", {"a": "b"}).serialize()
        parser = HttpParser()
        for i in range(0, len(raw), 7):
            assert parser.next_message() is None or True
            parser.feed(raw[i : i + 7])
        parsed = HttpRequest.parse(parser.next_message())
        assert parsed.form == {"a": "b"}

    def test_pipelined_requests(self):
        raw = HttpRequest.get("/one").serialize() + HttpRequest.get("/two").serialize()
        parser = HttpParser()
        parser.feed(raw)
        assert HttpRequest.parse(parser.next_message()).path == "/one"
        assert HttpRequest.parse(parser.next_message()).path == "/two"
        assert parser.next_message() is None

    def test_incomplete_body_waits(self):
        raw = HttpRequest.post_form("/login", {"a": "b"}).serialize()
        parser = HttpParser()
        parser.feed(raw[:-1])
        assert parser.next_message() is None
        parser.feed(raw[-1:])
        assert parser.next_message() is not None

    def test_oversized_headers_rejected(self):
        parser = HttpParser()
        with pytest.raises(ProtocolError):
            parser.feed(b"GET / HTTP/1.1\r\nX: " + b"a" * (70 * 1024))
            parser.next_message()


_names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10)
_values = st.text(max_size=30)


@given(st.dictionaries(_names, _values, max_size=8))
def test_property_form_roundtrip(fields):
    parsed = HttpRequest.parse(HttpRequest.post_form("/f", fields).serialize())
    assert parsed.form == fields
