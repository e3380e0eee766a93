"""The record layer: AES-128-GCM with explicit sequence numbers.

Every record is ``content_type (1 byte) || ciphertext`` inside a transport
frame.  The GCM nonce is the directional IV salt XORed with the record
sequence number, and the sequence number plus the content type are bound
into the AAD — so records cannot be reordered, replayed or re-typed within
a connection without failing authentication (:class:`IntegrityError`).

This provides the paper's "message integrity" and "message privacy" (§2.2);
*cross-connection* replay of the user pass phrase is exactly the residual
risk the paper discusses in §5.1 and fixes with one-time passwords
(:mod:`repro.core.otp`).
"""

from __future__ import annotations

import enum
import struct

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.util.errors import IntegrityError

_SEQ = struct.Struct(">Q")
_NONCE_LEN = 12


class ContentType(enum.IntEnum):
    """What a record carries."""

    HANDSHAKE = 1
    DATA = 2
    ALERT = 3


def _direction(key: bytes, iv_salt: bytes) -> tuple[AESGCM, int]:
    """One direction's cipher and IV salt (as an integer, for :func:`_nonce`)."""
    if len(iv_salt) != _NONCE_LEN:
        raise ValueError("IV salt must be 12 bytes")
    return AESGCM(key), int.from_bytes(iv_salt, "big")


def _nonce(salt: int, seq: int) -> bytes:
    """The GCM nonce of record ``seq``: the salt XOR the sequence number,
    right-aligned in 12 big-endian bytes."""
    return (salt ^ seq).to_bytes(_NONCE_LEN, "big")


class RecordWriter:
    """Encrypts outbound records for one direction of a connection."""

    def __init__(self, key: bytes, iv_salt: bytes) -> None:
        self._aead, self._salt = _direction(key, iv_salt)
        self._seq = 0

    def seal(self, content_type: ContentType, plaintext: bytes) -> bytes:
        seq = self._seq
        self._seq += 1
        aad = bytes([content_type]) + _SEQ.pack(seq)
        ciphertext = self._aead.encrypt(_nonce(self._salt, seq), plaintext, aad)
        return bytes([content_type]) + ciphertext


class RecordReader:
    """Decrypts and authenticates inbound records for one direction."""

    def __init__(self, key: bytes, iv_salt: bytes) -> None:
        self._aead, self._salt = _direction(key, iv_salt)
        self._seq = 0

    def open(self, record: bytes) -> tuple[ContentType, bytes]:
        if len(record) < 1 + 16:
            raise IntegrityError("record too short to authenticate")
        try:
            content_type = ContentType(record[0])
        except ValueError as exc:
            raise IntegrityError(f"unknown record type {record[0]}") from exc
        seq = self._seq
        aad = bytes([content_type]) + _SEQ.pack(seq)
        try:
            plaintext = self._aead.decrypt(_nonce(self._salt, seq), record[1:], aad)
        except InvalidTag as exc:
            raise IntegrityError(
                "record failed authentication (tampered, replayed or reordered)"
            ) from exc
        self._seq += 1
        return content_type, plaintext
