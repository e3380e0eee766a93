"""The credential repository storage layer (§4.1, §5.1).

What the repository holds, per (user identity, credential name):

- the delegated certificate and its chain (public material);
- the delegated **private key, encrypted at rest** — §5.1: "the repository
  encrypts the credentials that it holds with the pass phrase provided by
  the user.  Because of this, even if the repository host is compromised,
  an intruder would still need to decrypt the keys individually or wait
  until a portal connects and provides a pass phrase";
- a pass-phrase *verifier* (salted PBKDF2 digest — never the pass phrase
  itself) or the equivalent OTP/site-auth state (§6.3);
- the §4.1 retrieval restrictions: a maximum delegation lifetime and an
  optional per-credential retriever DN list.

Key-encryption modes (an explicit design tension the paper's §6.3 inherits):
with *pass-phrase* authentication the key is encrypted under the pass
phrase itself, so the server cannot decrypt stored keys between logins.
With *OTP* or *site* authentication there is no stable user secret to
encrypt under, so those entries are sealed with a server-held master key —
protecting against file-system theft but not a fully compromised server.
``EXPERIMENTS.md`` (S1/S5) measures both sides of that trade.

One interface, :class:`CredentialRepository`, with one durable engine —
:class:`~repro.core.segments.SegmentRepository` (what a deployment runs;
mode-0600 segment files inside a mode-0700 directory) — and
:class:`MemoryRepository` as the test double.
"""

from __future__ import annotations

import base64
import hmac
import json
import secrets
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.pbkdf2 import PBKDF2HMAC

from repro.util.errors import AuthenticationError, NotFoundError, RepositoryError

KEY_ENC_PASSPHRASE = "passphrase"
KEY_ENC_SERVER = "server-key"

_PBKDF2_BYTES = 32


# --------------------------------------------------------------------------
# pass-phrase verifiers
# --------------------------------------------------------------------------


def pbkdf2_sha256(secret: str, salt: bytes, iterations: int) -> bytes:
    """PBKDF2-HMAC-SHA256 of ``secret`` (UTF-8), 32 bytes.

    Runs on the OpenSSL that ``cryptography`` bundles, not the one behind
    the standard library's ``hashlib``: the same bytes for about half the
    CPU.  It holds the GIL while it derives, so a verify blocks every
    other thread's Python for its whole run.
    ``iterations`` is the security parameter (DESIGN.md §6.5), whichever
    implementation runs it.
    """
    kdf = PBKDF2HMAC(hashes.SHA256(), _PBKDF2_BYTES, salt, iterations)
    return kdf.derive(secret.encode("utf-8"))


def make_passphrase_verifier(passphrase: str, iterations: int) -> dict:
    """Salted PBKDF2 verifier stored in entry metadata."""
    salt = secrets.token_bytes(16)
    return {
        "method": "passphrase",
        "salt": salt.hex(),
        "hash": pbkdf2_sha256(passphrase, salt, iterations).hex(),
        "iterations": iterations,
    }


def check_passphrase(verifier: dict, passphrase: str) -> bool:
    """Constant-time pass-phrase check against a stored verifier.

    A malformed verifier — missing fields, bad hex, or a round count that
    is not an ``int`` from 1 to below 2**64 — checks False like a wrong
    pass phrase, so the caller refuses it rather than failing.
    """
    try:
        salt = bytes.fromhex(verifier["salt"])
        expected = bytes.fromhex(verifier["hash"])
        iterations = verifier["iterations"]
    except (KeyError, ValueError, TypeError):
        return False
    if type(iterations) is not int or iterations < 1:
        return False
    try:
        digest = pbkdf2_sha256(passphrase, salt, iterations)
    except OverflowError:
        return False
    return hmac.compare_digest(digest, expected)


# --------------------------------------------------------------------------
# server master-key sealing (for OTP / site-auth entries)
# --------------------------------------------------------------------------


class SecretBox:
    """AES-GCM sealing under a server-held master key."""

    def __init__(self, key: bytes | None = None) -> None:
        if key is None:
            key = secrets.token_bytes(32)
        if len(key) not in (16, 24, 32):
            raise RepositoryError("master key must be 16/24/32 bytes")
        self._aead = AESGCM(key)

    def seal(self, plaintext: bytes) -> bytes:
        nonce = secrets.token_bytes(12)
        return nonce + self._aead.encrypt(nonce, plaintext, b"repro-secretbox")

    def open(self, blob: bytes) -> bytes:
        if len(blob) < 12 + 16:
            raise AuthenticationError("sealed blob too short")
        try:
            return self._aead.decrypt(blob[:12], blob[12:], b"repro-secretbox")
        except Exception as exc:  # noqa: BLE001
            raise AuthenticationError("sealed blob failed to open") from exc


# --------------------------------------------------------------------------
# entries
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RepositoryEntry:
    """One stored credential and its retrieval policy."""

    username: str
    cred_name: str
    owner_dn: str
    certificate_pem: bytes  # leaf + chain, public material only
    key_pem: bytes  # private key, always encrypted (see key_encryption)
    key_encryption: str  # KEY_ENC_PASSPHRASE | KEY_ENC_SERVER
    verifier: dict  # auth-method state (passphrase digest / OTP chain / site)
    max_get_lifetime: float
    retrievers: tuple[str, ...] | None
    created_at: float
    not_after: float
    long_term: bool = False
    #: §6.6 renewal-by-possession: DN globs allowed to renew, or None for
    #: renewal disabled (the default — renewal weakens at-rest protection,
    #: see key_pem_renewal).
    renewers: tuple[str, ...] | None = None
    #: A server-sealed copy of the private key, present only when renewal
    #: is enabled: a renewer presents no pass phrase, so the server must be
    #: able to open the key itself.  This mirrors the real MyProxy, which
    #: documents that renewable credentials are stored without pass-phrase
    #: encryption.
    key_pem_renewal: bytes | None = None

    @property
    def key(self) -> tuple[str, str]:
        return (self.username, self.cred_name)

    @property
    def auth_method(self) -> str:
        return str(self.verifier.get("method", "passphrase"))

    def with_verifier(self, verifier: dict) -> RepositoryEntry:
        return replace(self, verifier=verifier)

    # -- JSON persistence -----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "username": self.username,
            "cred_name": self.cred_name,
            "owner_dn": self.owner_dn,
            "certificate_pem": self.certificate_pem.decode("ascii"),
            "key_pem": base64.b64encode(self.key_pem).decode("ascii"),
            "key_encryption": self.key_encryption,
            "verifier": self.verifier,
            "max_get_lifetime": self.max_get_lifetime,
            "retrievers": list(self.retrievers) if self.retrievers is not None else None,
            "created_at": self.created_at,
            "not_after": self.not_after,
            "long_term": self.long_term,
            "renewers": list(self.renewers) if self.renewers is not None else None,
            "key_pem_renewal": (
                base64.b64encode(self.key_pem_renewal).decode("ascii")
                if self.key_pem_renewal is not None
                else None
            ),
        }
        return json.dumps(doc, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> RepositoryEntry:
        try:
            doc = json.loads(text)
            retrievers = doc["retrievers"]
            renewers = doc.get("renewers")
            key_renewal = doc.get("key_pem_renewal")
            return cls(
                username=doc["username"],
                cred_name=doc["cred_name"],
                owner_dn=doc["owner_dn"],
                certificate_pem=doc["certificate_pem"].encode("ascii"),
                key_pem=base64.b64decode(doc["key_pem"]),
                key_encryption=doc["key_encryption"],
                verifier=dict(doc["verifier"]),
                max_get_lifetime=float(doc["max_get_lifetime"]),
                retrievers=tuple(retrievers) if retrievers is not None else None,
                created_at=float(doc["created_at"]),
                not_after=float(doc["not_after"]),
                long_term=bool(doc["long_term"]),
                renewers=tuple(renewers) if renewers is not None else None,
                key_pem_renewal=(
                    base64.b64decode(key_renewal) if key_renewal is not None else None
                ),
            )
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            raise RepositoryError(f"corrupt repository entry: {exc}") from exc


# --------------------------------------------------------------------------
# backends
# --------------------------------------------------------------------------


class CredentialRepository:
    """Abstract storage backend for repository entries."""

    def put(self, entry: RepositoryEntry) -> None:
        """Insert or replace the entry under ``entry.key``."""
        raise NotImplementedError

    def get(self, username: str, cred_name: str) -> RepositoryEntry:
        """Fetch an entry or raise :class:`NotFoundError`."""
        raise NotImplementedError

    def delete(self, username: str, cred_name: str) -> bool:
        """Remove an entry; True if one existed."""
        raise NotImplementedError

    def list_for(self, username: str) -> list[RepositoryEntry]:
        raise NotImplementedError

    def count(self) -> int:
        raise NotImplementedError

    def usernames(self) -> list[str]:
        raise NotImplementedError


class MemoryRepository(CredentialRepository):
    """Dictionary-backed storage, used by tests and benchmarks."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: dict[tuple[str, str], RepositoryEntry] = {}

    def put(self, entry: RepositoryEntry) -> None:
        with self._lock:
            self._entries[entry.key] = entry

    def get(self, username: str, cred_name: str) -> RepositoryEntry:
        with self._lock:
            entry = self._entries.get((username, cred_name))
        if entry is None:
            raise NotFoundError(
                f"no credential {cred_name!r} stored for user {username!r}"
            )
        return entry

    def delete(self, username: str, cred_name: str) -> bool:
        with self._lock:
            return self._entries.pop((username, cred_name), None) is not None

    def list_for(self, username: str) -> list[RepositoryEntry]:
        with self._lock:
            return sorted(
                (e for e in self._entries.values() if e.username == username),
                key=lambda e: e.cred_name,
            )

    def count(self) -> int:
        with self._lock:
            return len(self._entries)

    def usernames(self) -> list[str]:
        with self._lock:
            return sorted({u for (u, _) in self._entries})


QUARANTINE_DIR = "quarantine"


def encode_key_token(username: str, cred_name: str) -> str:
    """URL-safe base64 of ``username\\x00cred_name``.

    Used for segment record headers, quarantine artifact names and the
    legacy spool's file names alike: it avoids path traversal via hostile
    user names, keeps the mapping bijective, and lets a quarantine
    artifact name the credential it holds.
    """
    return base64.urlsafe_b64encode(
        username.encode("utf-8") + b"\x00" + cred_name.encode("utf-8")
    ).decode("ascii")


def decode_key_token(token: str) -> tuple[str, str]:
    raw = base64.urlsafe_b64decode(token.encode("ascii"))
    username, _, cred_name = raw.partition(b"\x00")
    return username.decode("utf-8"), cred_name.decode("utf-8")


class StorageStats:
    """Corruption/recovery/cache counters for one store, mirrorable into obs.

    The repository exists before any server (and its registry) does, so
    counts accumulate locally first; :meth:`publish` transfers them into a
    :class:`~repro.obs.registry.MetricsRegistry` and mirrors every later
    increment, making them visible on ``/metrics``.
    """

    _COUNTERS = (
        ("corruption_detected", "myproxy_storage_corruption_detected_total",
         "Segment records that failed CRC/parse checks."),
        ("torn_truncated", "myproxy_storage_torn_truncated_total",
         "Torn (never-acknowledged) record tails truncated at recovery."),
        ("quarantined", "myproxy_storage_quarantined_total",
         "Corrupt regions or files set aside in the quarantine directory."),
        ("scrub_repaired", "myproxy_storage_scrub_repaired_total",
         "Quarantined entries restored from a cluster peer."),
        ("compactions", "myproxy_storage_compactions_total",
         "Segment compaction runs completed."),
        ("cache_hits", "myproxy_storage_cache_hits_total",
         "Hot-entry cache hits on the segment read path."),
        ("cache_misses", "myproxy_storage_cache_misses_total",
         "Segment reads that missed the hot-entry cache."),
        ("snapshot_shipped", "myproxy_storage_snapshot_shipped_total",
         "Entries shipped in outbound bootstrap snapshot streams."),
        ("snapshot_ingested", "myproxy_storage_snapshot_ingested_total",
         "Entries ingested from inbound bootstrap snapshot streams."),
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values = {name: 0 for name, _, _ in self._COUNTERS}
        self._durations: list[float] = []
        self._mirror: dict[str, object] = {}
        self._duration_histogram = None

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._values[name] += amount
            mirror = self._mirror.get(name)
        if mirror is not None:
            mirror.inc(amount)

    def observe_recovery(self, seconds: float) -> None:
        with self._lock:
            self._durations.append(seconds)
            histogram = self._duration_histogram
        if histogram is not None:
            histogram.observe(seconds)

    def get(self, name: str) -> int:
        with self._lock:
            return self._values[name]

    def snapshot(self) -> dict:
        with self._lock:
            snap = dict(self._values)
            snap["recoveries"] = len(self._durations)
            snap["last_recovery_seconds"] = (
                self._durations[-1] if self._durations else 0.0
            )
        return snap

    def publish(self, registry) -> None:
        """Mirror into ``registry`` (idempotent; re-publish is a no-op)."""
        with self._lock:
            if self._mirror:
                return
            backlog = dict(self._values)
            durations = list(self._durations)
        mirror = {}
        for name, metric, help_text in self._COUNTERS:
            counter = registry.counter(metric, help_text)
            if backlog[name]:
                counter.inc(backlog[name])
            mirror[name] = counter
        histogram = registry.histogram(
            "myproxy_recovery_seconds",
            "Startup recovery / scrub duration for the credential store.",
        )
        for value in durations:
            histogram.observe(value)
        with self._lock:
            self._mirror = mirror
            self._duration_histogram = histogram


@dataclass(frozen=True)
class QuarantinedEntry:
    """One corrupt record or file set aside for repair instead of deletion."""

    username: str
    cred_name: str
    path: Path
    reason: str
