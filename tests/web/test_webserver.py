"""The web server: routing, sessions-over-cookies, both transports."""

import functools
import socket
import threading
import time

import pytest

from repro.transport.listener import Listener
from repro.web import server as web_server
from repro.web.client import Browser, LinkTransport, RawTcpTransport, SecureTransport
from repro.web.http11 import HttpResponse
from repro.web.server import WebServer
from repro.web.sessions import SESSION_COOKIE


@pytest.fixture()
def server(clock, host_cred, validator):
    web = WebServer("test", clock=clock, credential=host_cred, validator=validator)

    @web.route("GET", "/")
    def _home(ctx):
        return HttpResponse.html("home")

    @web.route("POST", "/count")
    def _count(ctx):
        ctx.session.data["n"] = ctx.session.data.get("n", 0) + 1
        return HttpResponse.html(f"count={ctx.session.data['n']}")

    @web.route("GET", "/secure-flag")
    def _secure(ctx):
        return HttpResponse.html(f"secure={ctx.secure}")

    @web.route("GET", "/boom")
    def _boom(ctx):
        raise RuntimeError("handler bug")

    with web:
        yield web


def browser_for(server, validator):
    def _connector(scheme, host, port):
        link = server.connect(scheme)
        if scheme == "https":
            return SecureTransport(link, validator)
        return LinkTransport(link)

    return Browser(_connector)


class TestRouting:
    def test_route_dispatch(self, server, validator):
        browser = browser_for(server, validator)
        assert browser.get("http://site/").text == "home"

    def test_404_for_unknown_path(self, server, validator):
        browser = browser_for(server, validator)
        assert browser.get("http://site/missing").status == 404

    def test_405_for_wrong_method(self, server, validator):
        browser = browser_for(server, validator)
        assert browser.get("http://site/count").status == 405

    @pytest.mark.expect_error("RuntimeError")
    def test_handler_crash_yields_500(self, server, validator):
        browser = browser_for(server, validator)
        assert browser.get("http://site/boom").status == 500

    def test_duplicate_route_refused(self, server):
        with pytest.raises(ValueError):
            server.add_route("GET", "/", lambda ctx: HttpResponse.html("again"))


class TestSessionsOverCookies:
    def test_cookie_issued_once_and_session_persists(self, server, validator):
        browser = browser_for(server, validator)
        assert browser.post("http://site/count", {}).text == "count=1"
        assert SESSION_COOKIE in browser.cookies["site"]
        assert browser.post("http://site/count", {}).text == "count=2"

    def test_separate_browsers_separate_sessions(self, server, validator):
        b1 = browser_for(server, validator)
        b2 = browser_for(server, validator)
        assert b1.post("http://site/count", {}).text == "count=1"
        assert b2.post("http://site/count", {}).text == "count=1"

    def test_session_survives_transport_switch(self, server, validator):
        """Cookie from HTTP reused over HTTPS (same host jar)."""
        browser = browser_for(server, validator)
        browser.post("http://site/count", {})
        assert browser.post("https://site/count", {}).text == "count=2"


class TestSecureMode:
    def test_secure_flag_reflects_transport(self, server, validator):
        browser = browser_for(server, validator)
        assert browser.get("http://site/secure-flag").text == "secure=False"
        assert browser.get("https://site/secure-flag").text == "secure=True"

    def test_https_requires_server_credential(self, clock, validator):
        bare = WebServer("bare", clock=clock)  # no credential
        with pytest.raises(RuntimeError):
            bare.connect("https")


class TestTcpMode:
    def test_real_sockets_end_to_end(self, server, validator):
        from repro.web.client import tcp_connector

        http = server.start_http()
        https = server.start_https()
        try:
            browser = Browser(
                lambda scheme, host, port: tcp_connector(validator)(
                    scheme, *(http if scheme == "http" else https)
                )
            )
            assert browser.get("http://127.0.0.1/").text == "home"
            assert browser.get("https://127.0.0.1/secure-flag").text == "secure=True"
        finally:
            server.stop()


def _read_reply(sock: socket.socket) -> HttpResponse:
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return HttpResponse.parse(data)


class TestListenerLimits:
    """The web server's worker pool and admission queue, made small."""

    def test_trickling_http_peer_does_not_hold_https_past_its_deadline(
        self, server, validator, monkeypatch
    ):
        # One worker, and a plain-HTTP request must arrive whole within 1 s.
        monkeypatch.setattr(web_server, "Listener", functools.partial(Listener, workers=1))
        monkeypatch.setattr(web_server, "TIMEOUT", 1.0)
        http = server.start_http()
        https = server.start_https()
        trickler = socket.create_connection(http)
        stop = threading.Event()

        def _trickle():
            # A byte every 0.2 s: never idle for a whole per-recv timeout.
            for byte in b"GET / HTTP/1.1\r\nHost: x\r\nX-Slow: " + b"a" * 100:
                if stop.wait(0.2):
                    return
                try:
                    trickler.send(bytes([byte]))
                except OSError:
                    return  # the server gave up on it

        thread = threading.Thread(target=_trickle, daemon=True)
        try:
            thread.start()
            time.sleep(0.3)  # the trickler holds the only worker
            started = time.monotonic()
            transport = SecureTransport(https, validator)
            try:
                reply = HttpResponse.parse(
                    transport.roundtrip(b"GET /secure-flag HTTP/1.1\r\nHost: x\r\n\r\n")
                )
            finally:
                transport.close()
            # Served once the trickler's 1 s ran out, well inside the
            # queue deadline that would have shed it.
            assert reply.text == "secure=True"
            assert time.monotonic() - started < 2.0
        finally:
            stop.set()
            thread.join()
            trickler.close()
            server.stop()

    def test_overfull_listener_answers_503(self, server, monkeypatch):
        monkeypatch.setattr(
            web_server,
            "Listener",
            functools.partial(Listener, workers=1, queue_depth=1, queue_deadline=0.5),
        )
        http = server.start_http()
        staller = socket.create_connection(http)
        queued = None
        try:
            staller.sendall(b"G")  # holds the only worker
            time.sleep(0.2)
            queued = socket.create_connection(http, timeout=5.0)  # fills the queue
            time.sleep(0.2)
            started = time.monotonic()
            overflow = RawTcpTransport(*http, timeout=5.0)
            try:
                reply = HttpResponse.parse(
                    overflow.roundtrip(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
                )
            finally:
                overflow.close()
            assert reply.status == 503
            assert time.monotonic() - started < 0.5
            # The queued connection is shed at its deadline, not left hanging.
            assert _read_reply(queued).status == 503
            assert time.monotonic() - started < 1.5
        finally:
            staller.close()
            if queued is not None:
                queued.close()
            server.stop()
