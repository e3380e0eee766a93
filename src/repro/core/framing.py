"""CRC-framed records: the one framing every durable byte is written in.

Segment records, snapshot streams and the replication log are all wrapped
in the same frame::

    %MPF1 <payload-length> <crc32>\\n<payload>\\n

The header is a single ASCII line (length-prefixed, CRC32 of the payload),
so a file stays human-inspectable while torn tails and bit rot are
*detectable* instead of silently parsed into garbage.  :func:`scan_frames`
classifies a byte stream's end state:

- ``clean``   — every frame intact;
- ``torn``    — the stream ends mid-frame (a crashed append): the tail is
  safe to truncate, the data in it was never acknowledged durable;
- ``corrupt`` — a complete-looking frame fails its CRC or magic (bit rot,
  a zeroed block): everything from that point is quarantined, never
  silently dropped.
"""

from __future__ import annotations

import zlib

from repro.util.errors import RepositoryError

MAGIC = b"%MPF1"


class FramingError(RepositoryError):
    """A framed record failed its structural or CRC check."""


def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length-prefixed, CRC32-checked frame."""
    header = b"%s %d %d\n" % (MAGIC, len(payload), zlib.crc32(payload))
    return header + payload + b"\n"


def scan_frames(data: bytes) -> tuple[list[bytes], int, str]:
    """Decode consecutive frames from ``data``.

    Returns ``(payloads, clean_length, status)`` where ``clean_length`` is
    the byte offset just past the last intact frame and ``status`` is one
    of ``"clean"``, ``"torn"`` (incomplete tail) or ``"corrupt"`` (a full
    frame that fails magic/CRC).
    """
    payloads: list[bytes] = []
    pos = 0
    size = len(data)
    while pos < size:
        nl = data.find(b"\n", pos, pos + 64)
        if nl == -1:
            incomplete = size - pos < 64 and data.find(b"\n", pos) == -1
            return payloads, pos, "torn" if incomplete else "corrupt"
        parts = data[pos:nl].split(b" ")
        if len(parts) != 3 or parts[0] != MAGIC:
            return payloads, pos, "corrupt"
        try:
            length, crc = int(parts[1]), int(parts[2])
        except ValueError:
            return payloads, pos, "corrupt"
        if length < 0:
            return payloads, pos, "corrupt"
        start = nl + 1
        end = start + length + 1  # payload plus trailing newline
        if end > size:
            return payloads, pos, "torn"
        payload = data[start:start + length]
        if data[end - 1] != 0x0A or zlib.crc32(payload) != crc:
            return payloads, pos, "corrupt"
        payloads.append(payload)
        pos = end
    return payloads, pos, "clean"


def iter_frames(data: bytes, pos: int = 0):
    """Yield ``(payload, start, end)`` for consecutive intact frames.

    Like :func:`scan_frames` but with byte offsets, which is what the
    segment engine's index needs; stops at the first torn or corrupt
    byte.  The caller learns where it stopped from the last yielded
    ``end`` (or ``pos`` if nothing was yielded) and can classify the
    remainder with :func:`scan_frames` or resume with
    :func:`find_next_frame`.
    """
    size = len(data)
    while pos < size:
        nl = data.find(b"\n", pos, pos + 64)
        if nl == -1:
            return
        parts = data[pos:nl].split(b" ")
        if len(parts) != 3 or parts[0] != MAGIC:
            return
        try:
            length, crc = int(parts[1]), int(parts[2])
        except ValueError:
            return
        if length < 0:
            return
        start = nl + 1
        end = start + length + 1
        if end > size:
            return
        payload = data[start:start + length]
        if data[end - 1] != 0x0A or zlib.crc32(payload) != crc:
            return
        yield payload, pos, end
        pos = end


def find_next_frame(data: bytes, pos: int) -> int:
    """Offset of the next *intact* frame at or after ``pos``, or -1.

    The salvage scan after a corrupt region: bit rot in the middle of a
    segment must not cost the intact records behind it, so recovery
    resynchronizes on the next verifiable frame header instead of
    discarding the rest of the file.
    """
    size = len(data)
    while 0 <= pos < size:
        pos = data.find(MAGIC, pos)
        if pos == -1:
            return -1
        probe = iter_frames(data, pos)
        try:
            next(probe)
            return pos
        except StopIteration:
            pos += 1
    return -1


def decode_single_frame(data: bytes) -> bytes:
    """Decode a file that must hold exactly one intact frame (legacy spool entry)."""
    payloads, clean_len, status = scan_frames(data)
    if status != "clean" or len(payloads) != 1 or clean_len != len(data):
        raise FramingError(
            f"expected one intact frame, found {len(payloads)} ({status})"
        )
    return payloads[0]


def is_framed(data: bytes) -> bool:
    return data.startswith(MAGIC)
