"""One issuance bound: no delivered proxy outlives or out-powers its parent.

The paper makes the lifetime of a proxy delegated *from* the repository a
server policy (§4.3) and requires that no proxy outlive or out-power the
credential that signed it (§2.3–2.4).  ``repro.pki.proxy.issuance_bound``
is the one place that decides it, and every path that signs a proxy takes
its terms from it.  This module checks that:

- a table pins the bound's rows: the server's default for 0, a lifetime
  honoured and one clamped, each cap, the issuer's expiry, and every
  refusal (a non-finite or non-positive lifetime, a full proxy below a
  limited issuer, an exhausted depth, an expired or CA issuer);
- properties drive each issuing path with drawn entries, policies,
  requested lifetimes (``nan``, ``inf``, ``-0.0`` and ``1e300`` among
  them), restrictions and clocks — GSI GET, a GET_MULTI item, HTTP GET and
  renewal by possession; ``create_proxy``, GSI delegation, the HTTP PUT
  and CDP signing; the federation deposit — and check that the delivered
  proxy ends no later than its parent and every cap, that limited stays
  limited, that restrictions only narrow and depth only decreases;
- ``accept_issue`` accepts exactly what the bound over the grant allows.

The expected grant is spelled out here (:func:`expected_grant`,
:func:`refused_by_issuer`) rather than read from the bound, so a cap
dropped from ``issuance_bound`` fails a property.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.httpbinding import HttpMyProxyClient, MyProxyHttpGateway
from repro.core.protocol import AuthMethod, BatchItem
from repro.federation.cdp import CdpClient, CdpService
from repro.federation.gateway import FEDERATED_RESTRICTIONS
from repro.federation.testbed import FederatedTestbed
from repro.pki.certs import CLOCK_SKEW, Certificate, build_certificate
from repro.pki.credentials import Credential
from repro.pki.proxy import (
    BACKDATE,
    ProxyRestrictions,
    ProxyType,
    create_proxy,
    effective_restrictions,
    issuance_bound,
    sign_proxy_request,
)
from repro.testbed import GridTestbed
from repro.transport.channel import accept_secure, connect_secure
from repro.transport.delegation import accept_delegation, accept_issue, delegate_credential
from repro.transport.links import pipe_pair
from repro.util.encoding import pack_fields
from repro.util.errors import CredentialError, PolicyError, ProtocolError, ReproError

PASS = "correct horse 42"
HOUR, DAY = 3600.0, 86400.0
WEEK = 7 * DAY

PROPERTY = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

#: Requested lifetimes: the edges no codec should let through, and ordinary ones.
LIFETIMES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -5.0]),
    st.floats(min_value=1.0, max_value=2 * DAY),
)
SPANS = st.floats(min_value=60.0, max_value=DAY)
RESTRICTIONS = st.none() | st.builds(
    ProxyRestrictions,
    operations=st.none() | st.frozensets(st.sampled_from(["store", "fetch", "run"])),
    resources=st.none() | st.frozensets(st.sampled_from(["mass-storage", "gram"])),
    max_delegation_depth=st.none() | st.integers(min_value=0, max_value=3),
)


# -- the rule, spelled out ------------------------------------------------------


def expected_grant(requested, now, *, default=None, maximum=None, cap=None, expires=None):
    """The lifetime a request earns, or None where it is refused: finite,
    the default (which then stands for the maximum) for ≤ 0 where there is
    one, else positive, and under every cap."""
    if not math.isfinite(requested):
        return None
    if default is not None and requested <= 0:
        requested = maximum = default
    grant = requested
    for limit in (maximum, cap, None if expires is None else expires - now):
        if limit is not None and limit < grant:
            grant = limit
    return grant if grant > 0 else None


def refused_by_issuer(issuer: Credential, now: float, limited: bool) -> bool:
    left = effective_restrictions(issuer.full_chain()).max_delegation_depth
    return (
        issuer.certificate.is_ca
        or (ProxyType.of(issuer.certificate) is ProxyType.LIMITED and not limited)
        or (left is not None and left <= 0)
        or issuer.certificate.not_after <= now
    )


def _narrows(inner: ProxyRestrictions, outer: ProxyRestrictions) -> bool:
    def within(a, b, fits):
        return b is None or (a is not None and fits(a, b))

    return (
        within(inner.operations, outer.operations, frozenset.issubset)
        and within(inner.resources, outer.resources, frozenset.issubset)
        and within(inner.max_delegation_depth, outer.max_delegation_depth, int.__le__)
    )


def check_delivered(chain, now: float, grant: float, restrictions=None) -> None:
    """The delivered proxy (``chain[0]``, over its parent ``chain[1]``)
    ends at ``now + grant`` or its parent's expiry, whichever is first, to
    the certificate's one-second resolution; limited stays limited;
    restrictions only narrow; depth only decreases."""
    leaf, parent = chain[0], chain[1]
    end = min(now + grant, parent.not_after)
    assert end - 1.0 <= leaf.not_after <= end
    assert leaf.not_after <= parent.not_after
    if ProxyType.of(parent) is ProxyType.LIMITED:
        assert ProxyType.of(leaf) is ProxyType.LIMITED
    before, after = effective_restrictions(chain[1:]), effective_restrictions(chain)
    assert _narrows(after, before)
    assert _narrows(after, restrictions or ProxyRestrictions.UNRESTRICTED)
    if before.max_delegation_depth is not None:
        assert 0 <= after.max_delegation_depth < before.max_delegation_depth


# -- the bound's table ------------------------------------------------------------


def mint_issuers(eec: Credential, key_pool, clock) -> dict[str, Credential]:
    """``eec`` and proxies of it of every kind, minted now."""
    def proxy(parent, lifetime, **terms):
        return create_proxy(parent, lifetime=lifetime, key_source=key_pool, clock=clock, **terms)

    one_hop = proxy(eec, DAY, restrictions=ProxyRestrictions(
        operations=frozenset({"store", "fetch"}), max_delegation_depth=1))
    return {
        "eec": eec,
        "short": proxy(eec, 2 * HOUR),
        "limited": proxy(eec, 12 * HOUR, limited=True),
        "one hop": one_hop,
        "spent": proxy(one_hop, DAY),
    }


@pytest.fixture()
def issuers(alice, ca, key_pool, clock):
    return {**mint_issuers(alice, key_pool, clock), "ca": Credential(ca.certificate)}


ROWS = [
    # (row, issuer, requested, caps, granted lifetime or the refusal)
    ("default for 0", "eec", 0.0, dict(default=5.0, maximum=10.0), 5.0),
    ("default for -0.0", "eec", -0.0, dict(default=5.0, maximum=10.0), 5.0),
    ("honoured", "eec", 7.0, dict(default=5.0, maximum=10.0), 7.0),
    ("clamped", "eec", 100.0, dict(default=5.0, maximum=10.0), 10.0),
    ("default above the maximum", "eec", 0.0, dict(default=20.0, maximum=10.0), 20.0),
    ("entry cap", "eec", 100.0, dict(maximum=50.0, cap=30.0), 30.0),
    ("entry expiry", "eec", 100.0, dict(maximum=50.0, cap=30.0, expires=20.0), 20.0),
    ("issuer expiry", "short", 1e300, {}, 1e300),
    ("nan", "eec", math.nan, {}, "finite"),
    ("nan with a default", "eec", math.nan, dict(default=5.0), "finite"),
    ("inf", "eec", math.inf, dict(maximum=10.0), "finite"),
    ("-inf", "eec", -math.inf, dict(default=5.0), "finite"),
    ("0 without a default", "eec", 0.0, {}, "positive"),
    ("-5 without a default", "eec", -5.0, {}, "positive"),
    ("expired entry", "eec", 10.0, dict(expires=0.0), "positive"),
    ("full below limited", "limited", 10.0, {}, "limited"),
    ("depth exhausted", "spent", 10.0, {}, "depth"),
    ("CA issuer", "ca", 10.0, {}, "CA"),
]


@pytest.mark.parametrize("row, issuer, requested, caps, outcome", ROWS, ids=[r[0] for r in ROWS])
def test_bound_table(issuers, clock, row, issuer, requested, caps, outcome):
    now = clock.now()
    if "expires" in caps:
        caps = {**caps, "expires": now + caps["expires"]}
    if isinstance(outcome, str):
        with pytest.raises(PolicyError, match=outcome):
            issuance_bound(issuers[issuer], requested, now, **caps)
        return
    bound = issuance_bound(issuers[issuer], requested, now, **caps)
    assert bound.lifetime == outcome
    assert bound.not_after == min(now + outcome, issuers[issuer].certificate.not_after)


def test_bound_of_a_limited_issuer_and_of_restrictions(issuers, clock):
    now = clock.now()
    assert issuance_bound(issuers["limited"], 10.0, now, limited=True).limited
    asked = ProxyRestrictions(operations=frozenset({"fetch", "run"}), max_delegation_depth=3)
    bound = issuance_bound(issuers["one hop"], 10.0, now, restrictions=asked)
    assert bound.restrictions.operations == {"fetch"}
    assert bound.depth == 0
    assert issuance_bound(issuers["eec"], 10.0, now).depth is None


@pytest.mark.parametrize("requested", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("signer", ["create_proxy", "sign_proxy_request"])
def test_signers_refuse_a_non_finite_lifetime(issuers, key_pool, clock, signer, requested):
    """Before the bound, ``nan`` escaped as a ``ValueError`` from the
    certificate builder and ``inf`` issued a proxy ending with its issuer."""
    with pytest.raises(PolicyError, match="finite"):
        if signer == "create_proxy":
            create_proxy(issuers["eec"], lifetime=requested, key_source=key_pool, clock=clock)
        else:
            sign_proxy_request(
                issuers["eec"], key_pool.new_key().public, lifetime=requested, clock=clock
            )


def test_a_huge_finite_lifetime_ends_with_the_issuer(issuers, key_pool, clock):
    proxy = create_proxy(issuers["short"], lifetime=1e300, key_source=key_pool, clock=clock)
    assert proxy.certificate.not_after == issuers["short"].certificate.not_after


# -- the repository's GET paths ---------------------------------------------------


@pytest.fixture()
def world(clock, key_pool):
    """One repository holding alice's renewable one-week proxy, its HTTP
    gateway with CDP, and a retriever."""
    tb = GridTestbed(clock=clock, key_source=key_pool, start_grid_services=False)
    try:
        gateway = MyProxyHttpGateway(tb.myproxy, key_source=key_pool)
        CdpService(gateway)
        alice, svc = tb.new_user("alice"), tb.new_user("svc")
        stored = create_proxy(alice.credential, lifetime=WEEK, key_source=key_pool, clock=clock)
        with tb.myproxy_client(alice.credential) as client:
            client.put(stored, username="alice", passphrase=PASS, lifetime=WEEK,
                       renewers=("*",))
        yield SimpleNamespace(
            tb=tb, clock=clock, gateway=gateway, alice=alice.credential,
            svc=svc.credential, template=tb.myproxy.repository.get("alice", "default"),
        )
    finally:
        tb.close()


def _http(world, credential, cls=HttpMyProxyClient):
    return cls(world.gateway.connect, credential, world.tb.validator,
               key_source=world.tb.key_source, clock=world.clock)


def _get(world, path: str, requested: float) -> Credential:
    fields = dict(username="alice", cred_name="drawn", lifetime=requested)
    if path == "gsi":
        with world.tb.myproxy_client(world.svc) as client:
            return client.get_delegation(passphrase=PASS, **fields)
    if path == "get_multi item":
        with world.tb.myproxy_client(world.svc) as client:
            (result,) = client.get_delegations([BatchItem(passphrase=PASS, **fields)])
        if isinstance(result, Exception):
            raise result
        return result
    if path == "http":
        with _http(world, world.svc) as client:
            return client.get_delegation(passphrase=PASS, **fields)
    client = world.tb.myproxy_client(world.alice) if path == "renewal" else _http(world, world.alice)
    with client:
        return client.get_delegation(auth_method=AuthMethod.RENEWAL, **fields)


@PROPERTY
@given(
    path=st.sampled_from(["gsi", "get_multi item", "http", "renewal", "http renewal"]),
    requested=LIFETIMES,
    maximum=SPANS, default=SPANS,
    cap=st.none() | st.just(0.0) | SPANS,
    life=st.floats(min_value=1.0, max_value=8 * DAY),
    step=st.floats(min_value=0.0, max_value=600.0),
)
@example(path="gsi", requested=DAY, maximum=HOUR, default=HOUR, cap=None, life=WEEK, step=0.0)
@example(path="get_multi item", requested=DAY, maximum=HOUR, default=HOUR, cap=2 * HOUR,
         life=WEEK, step=0.0)
@example(path="http", requested=DAY, maximum=HOUR, default=HOUR, cap=600.0, life=WEEK, step=0.0)
@example(path="renewal", requested=0.0, maximum=HOUR, default=HOUR, cap=None, life=300.0,
         step=0.0)
def test_every_get_path_grants_within_the_bound(
    world, path, requested, maximum, default, cap, life, step
):
    """A GET is granted the request (or the default for 0) under the
    policy maximum, the entry's cap (the maximum where it is absent or
    ≤ 0) and the entry's expiry, and the proxy ends with its parent at the
    latest; a lifetime the request codec refuses never reaches the server."""
    world.clock.advance(step)
    now = world.clock.now()
    policy = world.tb.myproxy.policy
    policy.max_delegation_lifetime, policy.default_delegation_lifetime = maximum, default
    entry = replace(world.template, cred_name="drawn", max_get_lifetime=cap, not_after=now + life)
    world.tb.myproxy.repository.put(entry)
    if not math.isfinite(requested) or requested < 0:
        with pytest.raises(ProtocolError, match="LIFETIME|lifetime"):
            _get(world, path, requested)
        return
    grant = expected_grant(
        requested, now, default=default, maximum=maximum,
        cap=cap if cap else maximum, expires=entry.not_after,
    )
    proxy = _get(world, path, requested)
    check_delivered(proxy.full_chain(), now, grant)


# -- the paths that sign with a credential in hand ----------------------------------


def _delegate(world, issuer, requested, limited, restrictions):
    """GSI delegation (PUT, GRAM, storage): ``issuer`` delegates over a
    fresh channel; the acceptor's credential, or None if it got none."""
    client_link, server_link = pipe_pair()
    accepted = {}
    host = world.tb.myproxy.credential

    def _accept():
        channel = accept_secure(server_link, host, world.tb.validator)
        try:
            accepted["proxy"] = accept_delegation(
                channel, key_source=world.tb.key_source, clock=world.clock
            )
        except ReproError:
            pass
        finally:
            channel.close()

    thread = threading.Thread(target=_accept)
    thread.start()
    channel = connect_secure(client_link, world.alice, world.tb.validator)
    try:
        delegate_credential(channel, issuer, lifetime=requested, limited=limited,
                            restrictions=restrictions, clock=world.clock)
    finally:
        channel.close()
        thread.join(10)
    assert not thread.is_alive()
    return accepted.get("proxy")


def _deposit(world, path, issuer, requested, limited, restrictions):
    """The HTTP PUT or a CDP delegation, signed by ``issuer``: the stored
    entry's chain."""
    fields = dict(username="alice", passphrase=PASS, lifetime=requested, cred_name="deposit")
    if path == "cdp":
        with _http(world, world.alice, CdpClient) as client:
            client.delegate(issuer, limited=limited, restrictions=restrictions, **fields)
    else:
        with _http(world, world.alice) as client:
            client.put(issuer, **fields)
    entry = world.tb.myproxy.repository.get("alice", "deposit")
    return Certificate.list_from_pem(entry.certificate_pem)


def _sign(world, key_pool, path, signer, requested, limited, restrictions):
    """The chain of the proxy ``path`` has ``signer`` issue."""
    if path == "create_proxy":
        return create_proxy(signer, lifetime=requested, limited=limited,
                            restrictions=restrictions, key_source=key_pool,
                            clock=world.clock).full_chain()
    if path == "gsi delegation":
        proxy = _delegate(world, signer, requested, limited, restrictions)
        assert proxy is not None, "the delegator issued what the acceptor refused"
        return proxy.full_chain()
    return _deposit(world, path, signer, requested, limited, restrictions)


@PROPERTY
@given(
    issuer=st.sampled_from(["eec", "short", "limited", "one hop", "spent"]),
    requested=LIFETIMES,
    limited=st.booleans(),
    restrictions=RESTRICTIONS,
    step=st.floats(min_value=0.0, max_value=600.0),
)
@example(issuer="limited", requested=HOUR, limited=False, restrictions=None, step=0.0)
@example(issuer="spent", requested=HOUR, limited=False, restrictions=None, step=0.0)
def test_every_signing_path_stays_within_the_bound(
    world, signers, key_pool, issuer, requested, limited, restrictions, step
):
    """``create_proxy``, GSI delegation, the HTTP PUT and CDP each sign
    exactly what the bound allows the issuer, and refuse what it refuses;
    the HTTP PUT asks for neither limitation nor restrictions."""
    world.clock.advance(step)
    now = world.clock.now()
    signer = signers[issuer]
    for path in ("create_proxy", "gsi delegation", "http put", "cdp"):
        terms = (False, None) if path == "http put" else (limited, restrictions)
        grant = expected_grant(requested, now)
        if grant is None or refused_by_issuer(signer, now, terms[0]):
            with pytest.raises(ReproError):
                _sign(world, key_pool, path, signer, requested, *terms)
        elif path in ("http put", "cdp") and requested > world.tb.myproxy.policy.max_stored_lifetime:
            with pytest.raises(ReproError, match="stored-credential lifetime"):
                _sign(world, key_pool, path, signer, requested, *terms)
        else:
            chain = _sign(world, key_pool, path, signer, requested, *terms)
            assert ProxyType.of(chain[0]) is (ProxyType.LIMITED if terms[0] else ProxyType.FULL)
            check_delivered(chain, now, grant, terms[1])


@pytest.fixture()
def signers(world, key_pool):
    return mint_issuers(world.alice, key_pool, world.clock)


# -- acceptance: exactly what the bound over the grant allows ------------------------


@pytest.mark.parametrize("offered", [b"nan", b"inf", b"0.000"])
def test_an_offer_the_bound_refuses_is_refused_before_a_key_is_made(
    alice, host_cred, validator, key_pool, offered
):
    """Before, an Offer of ``nan`` or ``inf`` passed the acceptor's parse,
    which made a key and sent its Request for a proxy no issuer may sign."""
    client_link, server_link = pipe_pair()
    sides = {}
    thread = threading.Thread(
        target=lambda: sides.update(server=accept_secure(server_link, host_cred, validator))
    )
    thread.start()
    client = connect_secure(client_link, alice, validator)
    thread.join(10)
    assert not thread.is_alive()
    made = []
    counting = SimpleNamespace(new_key=lambda: made.append(1) or key_pool.new_key())
    try:
        client.send(pack_fields([b"DG1", offered, b"0", bytes(32)]))
        with pytest.raises(ProtocolError, match="Offer lifetime"):
            accept_delegation(sides["server"], key_source=counting)
        assert not made
    finally:
        client.close()
        sides["server"].close()



@PROPERTY
@given(
    issuer=st.sampled_from(["eec", "short", "limited", "spent"]),
    granted=st.floats(min_value=1.0, max_value=DAY),
    asked=st.sampled_from([0.0, 600.0, 2 * HOUR]),
    limited=st.booleans(),
    issued_limited=st.booleans(),
    overshoot=st.floats(min_value=-2 * HOUR, max_value=2 * HOUR),
    step=st.integers(min_value=0, max_value=2 * 3600),
)
def test_accept_issue_accepts_exactly_what_the_bound_allows(
    issuers, key_pool, clock, issuer, granted, asked, limited, issued_limited, overshoot, step
):
    """A proxy issued ``overshoot`` seconds past (or short of) the grant's
    end is accepted iff the bound over the grant — ``granted`` under what
    was ``asked`` — allows its issuer to grant it: within the bound's end
    (± clock skew), of the granted limitation."""
    clock.advance(step)
    now = clock.now()
    signer, key = issuers[issuer], key_pool.new_key()
    end = min(now + (min(granted, asked) if asked else granted), signer.certificate.not_after)
    cert = build_certificate(
        subject=signer.certificate.subject.proxy_subject(limited=issued_limited),
        issuer=signer.certificate.subject, subject_public_key=key.public,
        signing_key=signer.key, serial=7, not_before=now - BACKDATE,
        not_after=max(end + overshoot, now - BACKDATE + 1.0),
    )
    chain_pem = b"".join(c.to_pem() for c in signer.full_chain())
    allowed = (
        not refused_by_issuer(signer, now, limited)
        and cert.not_after <= end + CLOCK_SKEW
        and issued_limited == limited
    )
    try:
        accept_issue(key, cert.to_pem(), chain_pem, lifetime=granted, limited=limited,
                     maximum=asked or None, clock=clock)
    except CredentialError:
        assert not allowed
    else:
        assert allowed


# -- the federation deposit -----------------------------------------------------------


@pytest.fixture()
def fed(clock, key_pool):
    with FederatedTestbed(clock=clock, key_source=key_pool) as testbed:
        alpha = testbed["alpha"]
        alice = alpha.tb.new_user("alice")
        alpha.tb.myproxy_init(alice, passphrase=PASS)
        browser = testbed.browser()
        browser.post(
            "https://portal-alpha.example.org/login",
            {"username": "alice", "passphrase": PASS, "repository": "repo-0",
             "lifetime_hours": "2", "auth_method": "passphrase"},
        )
        yield testbed, browser


def _redeem(fed, form_lifetime: str | None):
    """A redemption with ``lifetime=form_lifetime`` in the form: the HTTP
    status, the REDEEMED or refusal body, and how many CDP requests the
    peer realm served meanwhile."""
    testbed, browser = fed
    beta = testbed["beta"].tb.myproxy
    before = sum(r.command == "CDP" for r in beta.audit_log())
    assertion = json.loads(browser.post(
        "https://portal-alpha.example.org/sso/assert", {"audience": "beta"}
    ).body)["assertion"]
    form = {"assertion": assertion, "realm": "beta"}
    if form_lifetime is not None:
        form["lifetime"] = form_lifetime
    response = browser.post(f"https://{testbed['alpha'].gateway_host}/federation/redeem", form)
    return (response.status, json.loads(response.body),
            sum(r.command == "CDP" for r in beta.audit_log()) - before)


@pytest.mark.parametrize("form_lifetime", ["nan", "inf", "0", "-5", "-0.0"])
def test_a_bad_redeem_lifetime_is_refused_before_the_peer_realm(fed, form_lifetime):
    """Before the bound, ``nan`` and ``inf`` were ignored, and ``0`` and
    ``-5`` reached the peer realm and came back as a misattributed 403."""
    status, body, peer_requests = _redeem(fed, form_lifetime)
    assert status == 400
    assert body["error"].startswith("bad lifetime")
    assert peer_requests == 0


@settings(PROPERTY, max_examples=6)
@given(
    form_lifetime=st.none() | st.sampled_from(["1e300", "59.5"]) | SPANS.map(str),
    most=st.sampled_from([600.0, HOUR, 3 * HOUR]),
)
def test_the_deposit_is_capped_by_the_federation_lifetime(fed, form_lifetime, most):
    testbed, _browser = fed
    testbed["alpha"].tb.myproxy.policy.federation_delegation_lifetime = most
    session = testbed["alpha"].portal.held_credentials()
    (_repo, session_proxy), = session.values()
    now = testbed.clock.now()
    status, body, _ = _redeem(fed, form_lifetime)
    assert status == 200
    grant = expected_grant(float(form_lifetime or most), now, maximum=most)
    assert body["lifetime"] == grant
    entry = testbed["beta"].tb.myproxy.repository.get("alice", body["cred_name"])
    chain = Certificate.list_from_pem(entry.certificate_pem)
    assert chain[1].to_pem() == session_proxy.certificate.to_pem()
    check_delivered(chain, now, grant, FEDERATED_RESTRICTIONS)
