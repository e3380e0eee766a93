"""The scriptable browser: cookies, redirects, URL handling."""

import pytest

from repro.util.errors import TransportError
from repro.web.http11 import HttpResponse
from repro.web.server import WebServer
from tests.web.test_webserver import browser_for


@pytest.fixture()
def server(clock, host_cred, validator):
    web = WebServer("browsertest", clock=clock, credential=host_cred,
                    validator=validator)

    @web.route("GET", "/")
    def _home(ctx):
        return HttpResponse.html("home")

    @web.route("GET", "/bounce")
    def _bounce(ctx):
        return HttpResponse.redirect("/")

    @web.route("GET", "/loop")
    def _loop(ctx):
        return HttpResponse.redirect("/loop")

    @web.route("GET", "/echo-query")
    def _echo(ctx):
        return HttpResponse.html(str(sorted(ctx.request.query.items())))

    @web.route("GET", "/whoami")
    def _whoami(ctx):
        return HttpResponse.html(ctx.session.session_id)

    with web:
        yield web


class TestRedirects:
    def test_redirects_followed_by_default(self, server, validator):
        browser = browser_for(server, validator)
        assert browser.get("http://site/bounce").text == "home"

    def test_follow_redirects_false(self, server, validator):
        browser = browser_for(server, validator)
        response = browser.get("http://site/bounce", follow_redirects=False)
        assert response.status == 303

    def test_redirect_loops_bounded(self, server, validator):
        browser = browser_for(server, validator)
        response = browser.get("http://site/loop")
        assert response.status == 303  # gave up following, returned as-is
        assert len(browser.history) <= 7


class TestUrlHandling:
    def test_query_string_preserved(self, server, validator):
        browser = browser_for(server, validator)
        text = browser.get("http://site/echo-query?b=2&a=1").text
        assert "('a', '1')" in text and "('b', '2')" in text

    def test_unsupported_scheme_refused(self, server, validator):
        browser = browser_for(server, validator)
        with pytest.raises(TransportError):
            browser.get("ftp://site/")

    def test_default_path_is_root(self, server, validator):
        browser = browser_for(server, validator)
        assert browser.get("http://site").text == "home"


class TestCookieJar:
    def test_cookies_isolated_per_host(self, server, validator, clock,
                                       host_cred):
        other = WebServer("other", clock=clock, credential=host_cred,
                          validator=validator)

        @other.route("GET", "/whoami")
        def _who(ctx):
            return HttpResponse.html(ctx.session.session_id)

        from repro.web.client import Browser, LinkTransport

        servers = {"site-a": server, "site-b": other}

        def connector(scheme, host, port):
            return LinkTransport(servers[host].connect("http"))

        browser = Browser(connector)
        # give server-a a /whoami route too
        server.add_route("GET", "/whoami2", lambda ctx: HttpResponse.html("x"))
        with other:
            sid_a = browser.get("http://site-a/whoami").text
            sid_b = browser.get("http://site-b/whoami").text
            assert sid_a != sid_b
            assert set(browser.cookies) == {"site-a", "site-b"}
            # Returning to each host resumes each session.
            assert browser.get("http://site-a/whoami").text == sid_a
            assert browser.get("http://site-b/whoami").text == sid_b

    def test_history_records_requests(self, server, validator):
        browser = browser_for(server, validator)
        browser.get("http://site/")
        browser.post("http://site/", {"a": "1"})
        methods = [req.method for _url, req in browser.history]
        assert methods == ["GET", "POST"]
