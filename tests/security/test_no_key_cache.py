"""§5.1: no decrypted key outlives its request.

Stored keys load without OpenSSL's RSA re-check (they were validated at
ingest), which makes every GET cheap enough that caching decrypted keys is
never needed — and must never happen: a cache would put plaintext keys in
the memory of a compromised host, defeating "a stolen store is useless
without pass phrases".  Every key the entry-key loader hands out must be
garbage once its request is done.
"""

import gc
import time
import weakref

from repro.core.protocol import AuthMethod, BatchItem
from repro.pki.proxy import create_proxy

PASS = "correct horse 42"
PASS2 = "staple battery 99"


def _all_collected(refs, timeout=5.0):
    # Server threads finish their conversation (audit, stats) after the
    # client has its answer, so give them a moment before judging.
    deadline = time.monotonic() + timeout
    while True:
        gc.collect()
        alive = [ref for ref in refs if ref() is not None]
        if not alive or time.monotonic() > deadline:
            return not alive
        time.sleep(0.02)


def test_loaded_keys_die_with_their_request(tb):
    server = tb.myproxy
    loaded = []
    real_loader = server._decrypt_entry_key

    def tracking_loader(*args, **kwargs):
        key = real_loader(*args, **kwargs)
        loaded.append(weakref.ref(key))
        return key

    server._decrypt_entry_key = tracking_loader

    alice = tb.new_user("alice")
    bob = tb.new_user("bob")
    alice_proxy = create_proxy(alice.credential, lifetime=7 * 86400,
                               key_source=tb.key_source, clock=tb.clock)
    tb.myproxy_client(alice.credential).put(
        alice_proxy, username="alice", passphrase=PASS, lifetime=7 * 86400,
        renewers=("*",),
    )
    tb.myproxy_init(bob, passphrase=PASS2)
    portal = tb.myproxy_client(tb.new_user("portal").credential)

    for _ in range(3):
        portal.get_delegation(username="alice", passphrase=PASS, lifetime=3600)
    current = portal.get_delegation(username="alice", passphrase=PASS, lifetime=3600)
    for _ in range(2):
        current = tb.myproxy_client(current).get_delegation(
            username="alice", auth_method=AuthMethod.RENEWAL, lifetime=3600
        )
    portal.get_delegations([
        BatchItem(username="alice", passphrase=PASS, lifetime=3600.0),
        BatchItem(username="bob", passphrase=PASS2, lifetime=3600.0),
    ])

    assert len(loaded) == 4 + 2 + 2
    assert _all_collected(loaded), "a decrypted stored key outlived its request"
