"""Streaming uploads/downloads and GridFTP-style third-party transfers."""

import pytest

from repro.grid.storage import StorageService
from repro.pki.proxy import ProxyRestrictions, create_proxy
from repro.util.errors import AuthorizationError


@pytest.fixture()
def alice_proxy(tb, key_pool, clock):
    alice = tb.new_user("alice")
    return create_proxy(alice.credential, key_source=key_pool, clock=clock)


class TestStreaming:
    def test_store_stream_roundtrip(self, tb, alice_proxy):
        payload = bytes(range(256)) * 8192  # 2 MiB, many chunks
        with tb.storage_client(alice_proxy) as storage:
            stored = storage.store_stream(
                "big/data.bin",
                (payload[i : i + 65536] for i in range(0, len(payload), 65536)),
            )
            assert stored == len(payload)
        assert tb.storage.file_bytes("alice", "big/data.bin") == payload

    def test_fetch_stream_roundtrip(self, tb, alice_proxy):
        payload = b"\xaa" * (600 * 1024)  # > 2 × STREAM_CHUNK
        with tb.storage_client(alice_proxy) as storage:
            storage.store("chunked.bin", payload)
            received = b"".join(storage.fetch_stream("chunked.bin"))
        assert received == payload

    def test_stream_and_plain_interoperate(self, tb, alice_proxy):
        with tb.storage_client(alice_proxy) as storage:
            storage.store_stream("x", iter([b"hello ", b"grid"]))
            assert storage.fetch("x") == b"hello grid"

    def test_empty_stream(self, tb, alice_proxy):
        with tb.storage_client(alice_proxy) as storage:
            assert storage.store_stream("empty", iter([])) == 0
            assert storage.fetch("empty") == b""

    def test_stream_quota_enforced(self, tb_factory, key_pool, clock):
        tb = tb_factory()
        tb.storage.quota_bytes = 1000
        user = tb.new_user("smallquota")
        proxy = create_proxy(user.credential, key_source=key_pool, clock=clock)
        with tb.storage_client(proxy) as storage:
            with pytest.raises(AuthorizationError, match="quota"):
                storage.store_stream("too-big", iter([b"x" * 600, b"x" * 600]))
        assert tb.storage.usage("smallquota") == 0

    def test_fetch_stream_missing_file(self, tb, alice_proxy):
        with tb.storage_client(alice_proxy) as storage:
            with pytest.raises(AuthorizationError):
                storage.fetch_stream("ghost.bin")


@pytest.fixture()
def two_sites(tb, key_pool):
    """A second storage site, registered as a peer of the first."""
    remote_cred = tb.ca.issue_host_credential(
        "storage2.example.org", key=key_pool.new_key()
    )
    remote = StorageService(
        "mass-storage-2", remote_cred, tb.validator, tb.gridmap, clock=tb.clock
    )
    remote_target = tb._serve(remote)
    tb.storage.peers["site-2"] = remote_target
    return tb, remote


class TestThirdPartyTransfer:
    def test_transfer_lands_as_the_user(self, two_sites, alice_proxy, clock):
        """§2.4 in action: site-1 authenticates to site-2 *as alice* using
        the credential alice delegated for the transfer."""
        tb, remote = two_sites
        with tb.storage_client(alice_proxy) as storage:
            storage.store("dataset.bin", b"precious results")
            moved = storage.transfer(
                "dataset.bin", destination="site-2", dest_path="mirror/dataset.bin",
                clock=clock,
            )
        assert moved == len(b"precious results")
        assert remote.file_bytes("alice", "mirror/dataset.bin") == b"precious results"

    def test_unknown_peer_refused(self, two_sites, alice_proxy, clock):
        tb, _ = two_sites
        with tb.storage_client(alice_proxy) as storage:
            storage.store("f", b"x")
            with pytest.raises(AuthorizationError, match="no configured peer"):
                storage.transfer("f", destination="nowhere", clock=clock)

    def test_missing_source_refused(self, two_sites, alice_proxy, clock):
        tb, _ = two_sites
        with tb.storage_client(alice_proxy) as storage:
            with pytest.raises(AuthorizationError, match="no such file"):
                storage.transfer("ghost", destination="site-2", clock=clock)

    def test_transfer_respects_restrictions(self, two_sites, tb, key_pool, clock):
        """A proxy restricted to fetch-only cannot initiate transfers."""
        user = tb.new_user("restricted2")
        fetch_only = create_proxy(
            user.credential,
            restrictions=ProxyRestrictions(operations=frozenset({"fetch", "list"})),
            key_source=key_pool, clock=clock,
        )
        with tb.storage_client(fetch_only) as storage:
            with pytest.raises(AuthorizationError, match="restricted"):
                storage.transfer("whatever", destination="site-2", clock=clock)

    def test_transfer_under_destination_quota(self, two_sites, alice_proxy, clock):
        tb, remote = two_sites
        remote.quota_bytes = 4
        with tb.storage_client(alice_proxy) as storage:
            storage.store("big", b"12345678")
            with pytest.raises(AuthorizationError, match="quota"):
                storage.transfer("big", destination="site-2", clock=clock)
