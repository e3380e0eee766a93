"""Repository storage: verifiers, sealing, the backend contract."""

import pytest

from repro.core.repository import (
    MemoryRepository,
    RepositoryEntry,
    SecretBox,
    check_passphrase,
    make_passphrase_verifier,
)
from repro.core.segments import SegmentRepository
from repro.util.errors import AuthenticationError, NotFoundError, RepositoryError


def entry(username="alice", cred_name="default", **overrides) -> RepositoryEntry:
    defaults = dict(
        username=username,
        cred_name=cred_name,
        owner_dn="/O=Grid/OU=Repro/CN=Alice",
        certificate_pem=b"-----BEGIN CERTIFICATE-----\nfake\n-----END CERTIFICATE-----\n",
        key_pem=b"sealed-bytes",
        key_encryption="passphrase",
        verifier=make_passphrase_verifier("correct horse 42", 1000),
        max_get_lifetime=7200.0,
        retrievers=None,
        created_at=1000.0,
        not_after=2000.0,
        long_term=False,
    )
    defaults.update(overrides)
    return RepositoryEntry(**defaults)


class TestVerifiers:
    def test_correct_passphrase_accepted(self):
        v = make_passphrase_verifier("open sesame", 1000)
        assert check_passphrase(v, "open sesame")

    def test_wrong_passphrase_rejected(self):
        v = make_passphrase_verifier("open sesame", 1000)
        assert not check_passphrase(v, "open sesame!")

    def test_verifier_is_salted(self):
        a = make_passphrase_verifier("same phrase", 1000)
        b = make_passphrase_verifier("same phrase", 1000)
        assert a["hash"] != b["hash"]  # different salts, different digests

    def test_verifier_does_not_contain_passphrase(self):
        v = make_passphrase_verifier("open sesame", 1000)
        assert "open sesame" not in str(v)

    def test_corrupt_verifier_rejects(self):
        assert not check_passphrase({"salt": "zz", "hash": "zz"}, "anything")


class TestSecretBox:
    def test_roundtrip(self):
        box = SecretBox()
        assert box.open(box.seal(b"private key pem")) == b"private key pem"

    def test_different_boxes_cannot_open(self):
        blob = SecretBox().seal(b"data")
        with pytest.raises(AuthenticationError):
            SecretBox().open(blob)

    def test_tamper_detected(self):
        box = SecretBox()
        blob = bytearray(box.seal(b"data"))
        blob[-1] ^= 1
        with pytest.raises(AuthenticationError):
            box.open(bytes(blob))

    def test_bad_key_size_rejected(self):
        with pytest.raises(RepositoryError):
            SecretBox(b"short")


@pytest.fixture(params=["memory", "segments"])
def repo(request, tmp_path):
    if request.param == "memory":
        yield MemoryRepository()
        return
    segments = SegmentRepository(tmp_path / "store")
    yield segments
    segments.close()


class TestBackends:
    def test_put_get(self, repo):
        repo.put(entry())
        fetched = repo.get("alice", "default")
        assert fetched.username == "alice"
        assert check_passphrase(fetched.verifier, "correct horse 42")

    def test_get_missing_raises(self, repo):
        with pytest.raises(NotFoundError):
            repo.get("nobody", "default")

    def test_put_replaces(self, repo):
        repo.put(entry(not_after=2000.0))
        repo.put(entry(not_after=3000.0))
        assert repo.get("alice", "default").not_after == 3000.0
        assert repo.count() == 1

    def test_delete(self, repo):
        repo.put(entry())
        assert repo.delete("alice", "default") is True
        assert repo.delete("alice", "default") is False
        with pytest.raises(NotFoundError):
            repo.get("alice", "default")

    def test_multiple_credentials_per_user(self, repo):
        repo.put(entry(cred_name="default"))
        repo.put(entry(cred_name="wallet-1"))
        names = [e.cred_name for e in repo.list_for("alice")]
        assert names == ["default", "wallet-1"] or sorted(names) == ["default", "wallet-1"]

    def test_usernames(self, repo):
        repo.put(entry(username="alice"))
        repo.put(entry(username="bob", owner_dn="/O=Grid/OU=Repro/CN=Bob"))
        assert repo.usernames() == ["alice", "bob"]

    def test_entry_fields_roundtrip(self, repo):
        original = entry(
            retrievers=("/O=Grid/CN=host/portal.*",),
            long_term=True,
            key_encryption="server-key",
            key_pem=bytes(range(64)),
        )
        repo.put(original)
        assert repo.get("alice", "default") == original

    def test_hostile_usernames_safe(self, repo):
        """Path-traversal-shaped names must not escape the store."""
        weird = entry(username="../../etc/passwd", cred_name="x/../y")
        repo.put(weird)
        assert repo.get("../../etc/passwd", "x/../y") == weird


class TestSegmentBackend:
    def test_survives_reopen(self, tmp_path):
        store = tmp_path / "store"
        first = SegmentRepository(store)
        first.put(entry())
        first.close()
        reopened = SegmentRepository(store)
        assert reopened.get("alice", "default").username == "alice"
        reopened.close()

    def test_file_modes(self, tmp_path):
        store = tmp_path / "store"
        repo = SegmentRepository(store)
        repo.put(entry())
        assert (store.stat().st_mode & 0o777) == 0o700
        (segment,) = store.glob("seg-*.mps")
        assert (segment.stat().st_mode & 0o777) == 0o600
        repo.close()

    def test_hostile_names_create_no_stray_files(self, tmp_path):
        store = tmp_path / "store"
        repo = SegmentRepository(store)
        repo.put(entry(username="../../etc/passwd", cred_name="x/../y"))
        repo.close()
        assert {p.parent for p in tmp_path.rglob("*") if p.is_file()} == {store}
