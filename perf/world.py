"""One throw-away deployment: a CA, a bulk-loaded segment store, one server.

The server is the real ``python -m repro.cli.myproxy_server`` in a process
of its own, with the CLI's defaults: 2048-bit keys generated inline
(``keypair_pool 0``), the segments backend found by auto-detection on the
store directory, fsync on, session tickets on, TCP loopback.  Only the
ports are not defaults: they are 0, so the kernel picks free ones.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.client import ClientStats, MyProxyClient
from repro.core.protocol import DEFAULT_CRED_NAME
from repro.core.repository import (
    KEY_ENC_PASSPHRASE,
    RepositoryEntry,
    make_passphrase_verifier,
)
from repro.core.segments import SegmentRepository
from repro.pki.ca import CertificateAuthority
from repro.pki.credentials import Credential
from repro.pki.keys import DEFAULT_KEY_BITS, PooledKeySource
from repro.pki.names import DistinguishedName
from repro.pki.proxy import create_proxy
from repro.pki.validation import ChainValidator

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = PERF_DIR / "out"

PASSPHRASE = "correct horse battery 42"
KEY_BITS = DEFAULT_KEY_BITS
#: The server's CLI defaults, restated because stored entries built here
#: must look like the ones its PUT handler writes.
KDF_ITERATIONS = 20_000
MAX_GET_LIFETIME = 12 * 3600.0
STORED_LIFETIME = 7 * 86400.0

BASE_USERS = 2048
DISTINCT_CREDENTIALS = 16
#: Client-side delegation keys are recycled from this many pre-generated
#: 2048-bit keys, so client key generation (28-60 ms, random) stays out of
#: the end-to-end numbers; it is reported as pki.keys.generate_ms instead.
KEY_POOL_SIZE = 8
SERVER_START_TIMEOUT = 30.0
_LISTENING = re.compile(r"myproxy-server listening on (\S+):(\d+)\s*$")
_METRICS_AT = re.compile(r"metrics at http://(\S+):(\d+)/metrics\s*$")


def base_username(index: int) -> str:
    return f"u{index:04d}"


@dataclass(frozen=True)
class StoredCredential:
    """One of the distinct credentials the bulk-loaded entries share."""

    owner: Credential
    proxy: Credential
    certificate_pem: bytes
    key_pem: bytes
    verifier: dict

    def entry(self, username: str, now: float) -> RepositoryEntry:
        """What the server's PUT handler would have stored for this proxy."""
        return RepositoryEntry(
            username=username,
            cred_name=DEFAULT_CRED_NAME,
            owner_dn=str(self.owner.identity),
            certificate_pem=self.certificate_pem,
            key_pem=self.key_pem,
            key_encryption=KEY_ENC_PASSPHRASE,
            verifier=self.verifier,
            max_get_lifetime=MAX_GET_LIFETIME,
            retrievers=None,
            created_at=now,
            not_after=self.proxy.certificate.not_after,
        )


class ServerProcess:
    """The ``myproxy-server`` subprocess and the endpoints it announced."""

    def __init__(self, command: list[str], env: dict[str, str], want_metrics: bool) -> None:
        self.command = command
        self.endpoint: tuple[str, int] | None = None
        self.metrics_endpoint: tuple[str, int] | None = None
        self.output: list[str] = []
        self._ready = threading.Event()
        self._want_metrics = want_metrics
        self.process = subprocess.Popen(
            command,
            env=env,
            cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        # The pipe is drained for the server's whole life: a full pipe
        # would block its next print.
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self.output.append(line.rstrip("\n"))
            listening = _LISTENING.match(line)
            if listening:
                self.endpoint = (listening[1], int(listening[2]))
            metrics = _METRICS_AT.match(line)
            if metrics:
                self.metrics_endpoint = (metrics[1], int(metrics[2]))
            if self.endpoint and (self.metrics_endpoint or not self._want_metrics):
                self._ready.set()
        self._ready.set()  # EOF: wake the waiter so it can report the failure

    def wait_ready(self, timeout: float = SERVER_START_TIMEOUT) -> None:
        self._ready.wait(timeout)
        if self.endpoint is None or (self._want_metrics and self.metrics_endpoint is None):
            self.stop()
            raise RuntimeError(
                "myproxy-server did not announce its endpoint within "
                f"{timeout:.0f}s; output:\n" + "\n".join(self.output)
            )

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=5.0)
        if self.process.stdout is not None:
            self.process.stdout.close()


class World:
    """PKI, store directory and server of one set-up, under one temp dir."""

    def __init__(self, extra_entries=None) -> None:
        """Build the PKI and the store.

        ``extra_entries(world, now)`` yields a workload's own entries to
        bulk-load after the 2 048 base ones.
        """
        OUT_DIR.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="world-", dir=OUT_DIR))
        self.server: ServerProcess | None = None
        try:
            self._build(extra_entries)
        except BaseException:
            self.close()
            raise

    def _build(self, extra_entries) -> None:
        self.key_pool = PooledKeySource(bits=KEY_BITS, size=KEY_POOL_SIZE)
        self.ca = CertificateAuthority(
            DistinguishedName.parse("/O=Grid/OU=Perf/CN=Perf CA"), key_bits=KEY_BITS
        )
        self.validator = ChainValidator([self.ca.certificate])
        self.ca_path = self.root / "ca.pem"
        self.ca_path.write_bytes(self.ca.certificate.to_pem())
        self.host_path = self.root / "host.pem"
        self.host = self.ca.issue_host_credential("myproxy.perf.example", key_bits=KEY_BITS)
        self.host_path.write_bytes(self.host.export_pem())
        os.chmod(self.host_path, 0o600)
        self.portal = self.ca.issue_host_credential(
            "portal.perf.example", key=self.key_pool.new_key()
        )
        self.users = [
            self.ca.issue_credential(
                DistinguishedName.grid_user("Grid", "Perf", f"User {i:02d}"),
                key=self.key_pool.new_key(),
            )
            for i in range(DISTINCT_CREDENTIALS)
        ]
        self.stored = [self._stored_credential(user) for user in self.users]

        now = time.time()
        self.store_dir = self.root / "store"
        entries = [
            self.stored[i % DISTINCT_CREDENTIALS].entry(base_username(i), now)
            for i in range(BASE_USERS)
        ]
        if extra_entries is not None:
            entries.extend(extra_entries(self, now))
        self.entry_count = len(entries)
        repository = SegmentRepository(self.store_dir)
        try:
            repository.bulk_load(entries)
        finally:
            repository.close()

    def _stored_credential(self, owner: Credential) -> StoredCredential:
        proxy = create_proxy(owner, lifetime=STORED_LIFETIME, key_source=self.key_pool)
        return StoredCredential(
            owner=owner,
            proxy=proxy,
            certificate_pem=b"".join(c.to_pem() for c in proxy.full_chain()),
            key_pem=proxy.require_key().to_pem(PASSPHRASE),
            verifier=make_passphrase_verifier(PASSPHRASE, KDF_ITERATIONS),
        )

    def stored_for(self, base_index: int) -> StoredCredential:
        return self.stored[base_index % DISTINCT_CREDENTIALS]

    # -- the server ---------------------------------------------------------

    def server_command(self, metrics: bool) -> list[str]:
        command = [
            sys.executable, "-u", "-m", "repro.cli.myproxy_server",
            "--credential", str(self.host_path),
            "--trusted-ca", str(self.ca_path),
            "--storage-dir", str(self.store_dir),
            "--port", "0",
        ]
        if metrics:
            command += ["--metrics-port", "0"]
        return command

    def start_server(self, metrics: bool = False) -> ServerProcess:
        if self.server is not None:
            raise RuntimeError("server already running")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        self.server = ServerProcess(self.server_command(metrics), env, metrics)
        self.server.wait_ready()
        return self.server

    def stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def client(
        self, credential: Credential, *, stats: ClientStats | None = None, ticket_store=None
    ) -> MyProxyClient:
        assert self.server is not None and self.server.endpoint is not None
        return MyProxyClient(
            self.server.endpoint,
            credential,
            self.validator,
            key_source=self.key_pool,
            stats=stats,
            ticket_store=ticket_store,
        )

    def close(self) -> None:
        """Stop the server and remove the temp dir (safe on every exit path)."""
        try:
            self.stop_server()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)
