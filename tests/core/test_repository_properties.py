"""Property-based tests: repository entries survive serialization for any
field contents (user names are attacker-controlled strings)."""

import string

from hypothesis import given, strategies as st

from repro.core.repository import MemoryRepository, RepositoryEntry
from repro.core.segments import SegmentRepository

_text = st.text(max_size=40)
_name = st.text(min_size=1, max_size=30).filter(lambda s: s.strip())
_blob = st.binary(max_size=200)
_dn_glob = st.text(alphabet=string.printable.replace("\n", "").replace("\r", ""),
                   min_size=1, max_size=30)

entries = st.builds(
    RepositoryEntry,
    username=_name,
    cred_name=_name,
    owner_dn=_text,
    certificate_pem=st.just(b"-----BEGIN CERTIFICATE-----\nx\n-----END CERTIFICATE-----\n"),
    key_pem=_blob,
    key_encryption=st.sampled_from(["passphrase", "server-key"]),
    verifier=st.fixed_dictionaries(
        {"method": st.sampled_from(["passphrase", "otp", "site"]),
         "salt": st.text(alphabet="0123456789abcdef", min_size=2, max_size=16)}
    ),
    max_get_lifetime=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    retrievers=st.one_of(st.none(), st.lists(_dn_glob, max_size=3).map(tuple)),
    created_at=st.floats(min_value=0, max_value=4e9, allow_nan=False),
    not_after=st.floats(min_value=0, max_value=4e9, allow_nan=False),
    long_term=st.booleans(),
    renewers=st.one_of(st.none(), st.lists(_dn_glob, max_size=3).map(tuple)),
    key_pem_renewal=st.one_of(st.none(), _blob),
)


@given(entries)
def test_json_roundtrip(entry):
    assert RepositoryEntry.from_json(entry.to_json()) == entry


@given(entries)
def test_backend_roundtrip_any_username(tmp_path_factory, entry):
    """Hostile usernames/cred names never escape or corrupt the store."""
    segments = SegmentRepository(tmp_path_factory.mktemp("store"))
    try:
        for repo in (MemoryRepository(), segments):
            repo.put(entry)
            assert repo.get(entry.username, entry.cred_name) == entry
            assert repo.count() == 1
        # Every stored file stays inside the store root.
        for path in segments.root.rglob("*"):
            assert segments.root in path.parents
    finally:
        segments.close()
