"""§5.2's second session-tracking option: URL rewriting for cookieless
browsers ("this is often accomplished with cookies or rewriting URLs")."""

import pytest

from repro.web.http11 import HttpResponse
from repro.web.server import WebServer
from tests.web.test_webserver import browser_for


@pytest.fixture()
def server(clock, host_cred, validator):
    web = WebServer("urlsess", clock=clock, credential=host_cred, validator=validator)

    @web.route("POST", "/login")
    def _login(ctx):
        ctx.session.data["username"] = ctx.request.form.get("username", "")
        return HttpResponse.redirect("/home")

    @web.route("GET", "/home")
    def _home(ctx):
        user = ctx.session.data.get("username")
        if not user:
            return HttpResponse.redirect("/login-page")
        return HttpResponse.html(f"welcome {user}")

    @web.route("GET", "/login-page")
    def _login_page(ctx):
        return HttpResponse.html("please log in")

    with web:
        yield web


class TestUrlRewriting:
    def test_cookieless_browser_keeps_its_session(self, server, validator):
        browser = browser_for(server, validator)
        browser.cookies_enabled = False
        # The login redirect carries the sid; following it lands logged in.
        response = browser.post("http://site/login", {"username": "alice"})
        assert response.text == "welcome alice"

    def test_sid_in_query_resolves_session(self, server, validator):
        browser = browser_for(server, validator)
        browser.cookies_enabled = False
        redirect = browser.post(
            "http://site/login", {"username": "alice"}, follow_redirects=False
        )
        location = redirect.header("Location")
        assert "sid=" in location
        assert browser.get(f"http://site{location}").text == "welcome alice"

    def test_sid_in_form_field_resolves_session(self, server, validator):
        browser = browser_for(server, validator)
        browser.cookies_enabled = False
        redirect = browser.post(
            "http://site/login", {"username": "bob"}, follow_redirects=False
        )
        sid = redirect.header("Location").partition("sid=")[2]
        # A later POST carries the sid as a hidden form field instead.

        follow = browser.post("http://site/login", {"username": "ignored", "sid": sid},
                              follow_redirects=False)
        assert f"sid={sid}" in follow.header("Location")

    def test_without_sid_cookieless_browser_is_anonymous(self, server, validator):
        browser = browser_for(server, validator)
        browser.cookies_enabled = False
        browser.post("http://site/login", {"username": "alice"},
                     follow_redirects=False)
        # A bare request (no sid, no cookie) gets a *new* session.
        response = browser.get("http://site/home", follow_redirects=False)
        assert response.status == 303  # bounced to the login page

    def test_cookie_browser_unaffected(self, server, validator):
        browser = browser_for(server, validator)
        response = browser.post("http://site/login", {"username": "carol"})
        assert response.text == "welcome carol"

    def test_bogus_sid_gets_fresh_session(self, server, validator):
        browser = browser_for(server, validator)
        browser.cookies_enabled = False
        response = browser.get("http://site/home?sid=forged-session-id",
                               follow_redirects=False)
        assert response.status == 303  # not someone's session — a new one
