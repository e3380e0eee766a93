"""RSA key pairs and private-key storage (§2.1).

The paper's PKI rests on each entity holding a private key, optionally
encrypted at rest with a pass phrase.  :class:`KeyPair` wraps an RSA key from
``cryptography`` with the exact operations the rest of the system needs:

- sign / verify (PKCS#1 v1.5 with SHA-256, the workhorse of SSL 3-era GSI);
- RSA key transport (encrypt a session secret to a public key — the SSL 3.0
  key-exchange step of :mod:`repro.transport.handshake`);
- PEM serialization, encrypted with a pass phrase for long-term keys
  (§2.1: "storing it in an encrypted file with a decryption pass phrase
  known only to the owner") or plaintext for proxy keys (§2.3: "stored
  unencrypted on the local file system, protected only by file system
  permissions").

A :class:`KeySource` abstraction lets tests and benchmarks swap fresh key
generation for a pre-generated pool: delegation mints a brand-new key pair
on every operation, which is correct but dominates unit-test run time.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa

from repro.util.errors import CredentialError

DEFAULT_KEY_BITS = 2048
TEST_KEY_BITS = 1024
_PUBLIC_EXPONENT = 65537

_SIGN_PADDING = padding.PKCS1v15()
_SIGN_HASH = hashes.SHA256()
_TRANSPORT_PADDING = padding.OAEP(
    mgf=padding.MGF1(algorithm=hashes.SHA256()),
    algorithm=hashes.SHA256(),
    label=None,
)


@dataclass(frozen=True)
class PublicKey:
    """A peer's public key: verify signatures, encrypt session secrets."""

    _key: rsa.RSAPublicKey

    def verify(self, signature: bytes, message: bytes) -> bool:
        """True iff ``signature`` is a valid signature over ``message``."""
        try:
            self._key.verify(signature, message, _SIGN_PADDING, _SIGN_HASH)
            return True
        except Exception:  # noqa: BLE001 - any failure means "invalid"
            return False

    def encrypt(self, plaintext: bytes) -> bytes:
        """RSA-OAEP key transport (bounded by the key modulus size)."""
        return self._key.encrypt(plaintext, _TRANSPORT_PADDING)

    def to_pem(self) -> bytes:
        return self._key.public_bytes(
            serialization.Encoding.PEM,
            serialization.PublicFormat.SubjectPublicKeyInfo,
        )

    @classmethod
    def from_pem(cls, pem: bytes) -> PublicKey:
        try:
            key = serialization.load_pem_public_key(pem)
        except Exception as exc:  # noqa: BLE001
            raise CredentialError("malformed public key PEM") from exc
        if not isinstance(key, rsa.RSAPublicKey):
            raise CredentialError("only RSA public keys are supported")
        return cls(key)

    @property
    def bits(self) -> int:
        return self._key.key_size

    def fingerprint(self) -> str:
        """Stable hex digest of the DER public key, for logs and indexes."""
        der = self._key.public_bytes(
            serialization.Encoding.DER,
            serialization.PublicFormat.SubjectPublicKeyInfo,
        )
        digest = hashes.Hash(hashes.SHA256())
        digest.update(der)
        return digest.finalize().hex()[:32]

    @property
    def raw(self) -> rsa.RSAPublicKey:
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PublicKey):
            return NotImplemented
        return self.to_pem() == other.to_pem()

    def __hash__(self) -> int:
        return hash(self.to_pem())


@dataclass(frozen=True)
class KeyPair:
    """An RSA private key with its public half."""

    _key: rsa.RSAPrivateKey

    @classmethod
    def generate(cls, bits: int = DEFAULT_KEY_BITS) -> KeyPair:
        if bits < 1024:
            raise CredentialError(f"refusing to generate a {bits}-bit RSA key")
        return cls(rsa.generate_private_key(_PUBLIC_EXPONENT, bits))

    @property
    def public(self) -> PublicKey:
        return PublicKey(self._key.public_key())

    @property
    def bits(self) -> int:
        return self._key.key_size

    @property
    def raw(self) -> rsa.RSAPrivateKey:
        return self._key

    def sign(self, message: bytes) -> bytes:
        return self._key.sign(message, _SIGN_PADDING, _SIGN_HASH)

    def decrypt(self, ciphertext: bytes) -> bytes:
        try:
            return self._key.decrypt(ciphertext, _TRANSPORT_PADDING)
        except Exception as exc:  # noqa: BLE001
            raise CredentialError("RSA decryption failed") from exc

    # -- storage ------------------------------------------------------------

    def to_pem(self, passphrase: str | None = None) -> bytes:
        """Serialize; encrypted iff a pass phrase is supplied."""
        if passphrase is not None:
            if not passphrase:
                raise CredentialError("empty pass phrase for key encryption")
            enc: serialization.KeySerializationEncryption = (
                serialization.BestAvailableEncryption(passphrase.encode("utf-8"))
            )
        else:
            enc = serialization.NoEncryption()
        return self._key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            enc,
        )

    @classmethod
    def from_pem(
        cls, pem: bytes, passphrase: str | None = None, *, trusted: bool = False
    ) -> KeyPair:
        """Load a key; a wrong pass phrase raises :class:`CredentialError`.

        By default OpenSSL re-checks the RSA key's consistency (primality of
        p and q, CRT parameters) — ~40 ms for a 2048-bit key.  ``trusted``
        skips that check; it is only for keys validated once already, at
        ingest, i.e. the repository's own stored entries.
        """
        try:
            key = serialization.load_pem_private_key(
                pem,
                passphrase.encode("utf-8") if passphrase is not None else None,
                unsafe_skip_rsa_key_validation=trusted,
            )
        except (ValueError, TypeError) as exc:
            raise CredentialError(
                "could not load private key (wrong pass phrase or corrupt PEM)"
            ) from exc
        if not isinstance(key, rsa.RSAPrivateKey):
            raise CredentialError("only RSA private keys are supported")
        return cls(key)


class KeySource:
    """Where fresh key pairs come from.  Swappable for tests/benchmarks."""

    def new_key(self) -> KeyPair:
        raise NotImplementedError


@dataclass
class FreshKeySource(KeySource):
    """Generate a brand-new key pair on every request (the real behaviour)."""

    bits: int = DEFAULT_KEY_BITS

    def new_key(self) -> KeyPair:
        return KeyPair.generate(self.bits)


class PooledKeySource(KeySource):
    """Hand out keys from a pre-generated pool, recycling round-robin.

    **Test/benchmark helper only** — reusing proxy keys would be a security
    hole in a real deployment, but is harmless when measuring protocol costs
    or running a large unit-test suite.
    """

    def __init__(self, bits: int = TEST_KEY_BITS, size: int = 8) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self._keys = [KeyPair.generate(bits) for _ in range(size)]
        self._idx = 0
        self._lock = threading.Lock()

    def new_key(self) -> KeyPair:
        with self._lock:
            key = self._keys[self._idx % len(self._keys)]
            self._idx += 1
            return key


class OneShotKeyPool(KeySource):
    """Background-refilled pool that hands each key out **exactly once**.

    RSA keypair generation dominates the delegation hot path (Figures 2–3
    of the paper are mostly asymmetric crypto), so a daemon thread keeps
    up to ``size`` pre-generated keys ready.  Unlike
    :class:`PooledKeySource` this never recycles private keys — a drained
    pool falls back to inline generation (counted as a *starvation*), so
    correctness never depends on the refill thread keeping up.

    Safe for production use: every key handed out is unique, exactly as
    if :class:`FreshKeySource` had been called, just earlier.
    """

    def __init__(self, bits: int = DEFAULT_KEY_BITS, size: int = 8) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.bits = bits
        self.size = size
        self._queue: queue.Queue[KeyPair] = queue.Queue(maxsize=size)
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self.served_from_pool = 0
        self.starvations = 0
        self._metric_pool = None
        self._metric_starved = None
        self._metric_depth = None
        self._thread = threading.Thread(
            target=self._refill, name=f"keypool-{bits}", daemon=True
        )
        self._thread.start()

    def _refill(self) -> None:
        while not self._stop.is_set():
            key = KeyPair.generate(self.bits)
            while not self._stop.is_set():
                try:
                    self._queue.put(key, timeout=0.2)
                    self._update_depth()
                    break
                except queue.Full:
                    continue

    def new_key(self) -> KeyPair:
        try:
            key = self._queue.get_nowait()
            with self._lock:
                self.served_from_pool += 1
            if self._metric_pool is not None:
                self._metric_pool.inc()
        except queue.Empty:
            with self._lock:
                self.starvations += 1
            if self._metric_starved is not None:
                self._metric_starved.inc()
            key = KeyPair.generate(self.bits)
        self._update_depth()
        return key

    @property
    def depth(self) -> int:
        """How many pre-generated keys are ready right now."""
        return self._queue.qsize()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "served_from_pool": self.served_from_pool,
                "starvations": self.starvations,
                "depth": self._queue.qsize(),
            }

    def publish_metrics(self, registry) -> None:
        """Expose pool counters/depth through an obs registry."""
        family = registry.counter(
            "myproxy_keypool_keys_total",
            "One-shot keypair pool requests by source.",
            labelnames=("source",),
        )
        self._metric_pool = family.labels(source="pool")
        self._metric_starved = family.labels(source="inline")
        self._metric_depth = registry.gauge(
            "myproxy_keypool_depth", "Pre-generated keys ready in the pool."
        )
        self._update_depth()

    def _update_depth(self) -> None:
        if self._metric_depth is not None:
            self._metric_depth.set(self._queue.qsize())

    def close(self) -> None:
        """Stop the refill thread (idempotent; pooled keys stay servable)."""
        self._stop.set()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "OneShotKeyPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
