"""Fixtures and helpers for the cluster subsystem tests.

The cluster-building fixtures themselves (``cluster_factory``,
``cluster_client_factory``) live in the top-level ``tests/conftest.py`` so
the integration acceptance test can use them too; this file holds the
storage-layer helpers the unit tests need.
"""

from __future__ import annotations

import pytest

from repro.core.repository import RepositoryEntry


def make_plain_entry(
    username: str = "alice", cred_name: str = "default", key_pem: bytes = b"ciphertext"
) -> RepositoryEntry:
    """A schema-valid entry without real crypto (storage-layer tests only)."""
    return RepositoryEntry(
        username=username,
        cred_name=cred_name,
        owner_dn=f"/O=Grid/CN={username}",
        certificate_pem=b"-----BEGIN CERTIFICATE-----\nZmFrZQ==\n-----END CERTIFICATE-----\n",
        key_pem=key_pem,
        key_encryption="passphrase",
        verifier={"method": "passphrase", "salt": "00", "hash": "00", "iterations": 1},
        max_get_lifetime=7200.0,
        retrievers=None,
        created_at=0.0,
        not_after=1e12,
    )


@pytest.fixture()
def entry_factory():
    return make_plain_entry
