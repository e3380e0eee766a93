"""CRC-framed records: the one framing every durable byte is written in.

Segment records, snapshot streams and the replication log are all wrapped
in the same frame::

    %MPF1 <payload-length> <crc32>\\n<payload>\\n

The header is a single ASCII line (length-prefixed, CRC32 of the payload),
so a file stays human-inspectable while torn tails and bit rot are
*detectable* instead of silently parsed into garbage.  A stream's end
state is one of:

- ``clean``   — every frame intact;
- ``torn``    — the stream ends mid-frame (a crashed append): the tail is
  safe to truncate, the data in it was never acknowledged durable;
- ``corrupt`` — a complete-looking frame fails its CRC or magic (bit rot,
  a zeroed block): everything from that point is quarantined, never
  silently dropped.

There is one decoder, :class:`FrameDecoder`: it is fed a stream in
chunks of any size and holds only the bytes of the frame it is on, so
segment recovery, the replication log and snapshot ingest decode a
stream of any length in one chunk plus the longest frame a header in it
claims — and a claim that runs past a stream of known size is torn at
once (or, when resynchronising, where a search for the next frame
starts), never waited for.  :func:`scan_frames`, :func:`iter_frames` and
:func:`find_next_frame` are its three views over a whole buffer.
"""

from __future__ import annotations

import os
import zlib
from collections.abc import Iterable, Iterator

from repro.util.errors import RepositoryError

MAGIC = b"%MPF1"

#: Bytes read (and checksummed, and fed) per step when a file is
#: decoded, CRC'd or copied: the memory a scan holds beyond one frame.
CHUNK_BYTES = 1 << 18

# A frame header must end within this many bytes of its first one.
_HEADER_WINDOW = 64


class FramingError(RepositoryError):
    """A framed record failed its structural or CRC check."""


def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length-prefixed, CRC32-checked frame."""
    header = b"%s %d %d\n" % (MAGIC, len(payload), zlib.crc32(payload))
    return header + payload + b"\n"


def file_chunks(fd: int, start: int, end: int) -> Iterator[bytes]:
    """The bytes ``[start, end)`` of open file ``fd``, ``CHUNK_BYTES`` at a
    time (positional reads: the file offset is left alone)."""
    while start < end:
        piece = os.pread(fd, min(CHUNK_BYTES, end - start), start)
        if not piece:
            return
        start += len(piece)
        yield piece


def file_crc(fd: int, end: int) -> int:
    """CRC32 of the first ``end`` bytes of ``fd``, read a chunk at a time."""
    crc = 0
    for piece in file_chunks(fd, 0, end):
        crc = zlib.crc32(piece, crc)
    return crc


# What _probe returns for bytes that are not (yet) an intact frame.
_TORN, _CORRUPT = (None, 0), (None, -1)


def _probe(buf: bytes, at: int, final: bool, limit: int | None):
    """Classify the frame that should start at ``buf[at]``.

    Returns ``(payload, end)`` for an intact frame; ``(None, want)``
    when ``buf`` must reach length ``want`` first; else :data:`_TORN`
    or :data:`_CORRUPT`.  ``final`` says ``buf`` ends the stream;
    ``limit`` is where the stream ends in ``buf``'s terms, when known,
    so a header that claims more than is left is torn at once instead
    of waited for.
    """
    nl = buf.find(b"\n", at, at + _HEADER_WINDOW)
    if nl == -1:
        if len(buf) - at >= _HEADER_WINDOW:
            return _CORRUPT
        return _TORN if final else (None, len(buf) + 1)
    parts = buf[at:nl].split(b" ")
    if len(parts) != 3 or parts[0] != MAGIC:
        return _CORRUPT
    try:
        length, crc = int(parts[1]), int(parts[2])
    except ValueError:
        return _CORRUPT
    if length < 0:
        return _CORRUPT
    end = nl + 2 + length  # header, payload, trailing newline
    if limit is not None and end > limit:
        return _TORN
    if end > len(buf):
        return _TORN if final else (None, end)
    payload = buf[nl + 1:end - 1]
    if buf[end - 1] != 0x0A or zlib.crc32(payload) != crc:
        return _CORRUPT
    return payload, end


class FrameDecoder:
    """Decode a framed stream fed in chunks of any size.

    :meth:`feed` and :meth:`finish` return events in stream order:
    ``(payload, start, end)`` for each intact frame, with ``start`` and
    ``end`` stream offsets (counted from ``offset``, the position of the
    first byte fed).  Once the stream's end state is known, ``status``
    is ``"clean"``, ``"torn"`` or ``"corrupt"`` and ``clean_end`` is the
    offset just past the last intact frame; later feeds are ignored.

    Without ``resync`` decoding stops at the first torn or corrupt byte.
    With it, a corrupt region is reported as ``(None, start, end)`` and
    decoding resumes on the next intact frame after its first byte; a
    region that no intact frame follows runs to the end of the stream,
    and ``status`` is then ``"corrupt"``.  Bytes that look torn (a header
    claiming more than is left, or a stream ending mid-frame) are a torn
    tail only when no intact frame follows them; otherwise they are a
    corrupt region like any other — a length damaged mid-stream must not
    cost the records behind it.  The region's bytes are not kept: the
    caller reads them back from its source if it wants them.

    ``size``, the offset where the stream ends, is optional; given, a
    header that claims more bytes than are left is torn (or, while
    resynchronising, not a frame) without waiting for them.  Either way
    the decoder holds only the bytes of the frame it is on — a declared
    length is never allocated up front.
    """

    def __init__(self, offset: int = 0, *, size: int | None = None,
                 resync: bool = False) -> None:
        self.status: str | None = None
        self.clean_end = offset
        self._size = size
        self._resync = resync
        self._buf = b""
        self._base = offset  # stream offset of _buf[0]
        self._at = 0  # in _buf: the next frame, or where the search resumes
        self._pending: list[bytes] = []  # fed, not yet joined onto _buf
        self._fed = offset  # stream offset past the last byte fed
        self._want = offset  # progress needs the stream to reach this offset
        self._gap: int | None = None  # start of the corrupt region being crossed
        self._gap_torn = False  # that region began as a torn-looking frame

    def feed(self, chunk: bytes) -> list[tuple]:
        """Take the next bytes of the stream; return the events they complete."""
        if self.status is not None or not chunk:
            return []
        self._pending.append(chunk)
        self._fed += len(chunk)
        if self._fed < self._want:
            return []
        return self._run(final=False)

    def finish(self) -> list[tuple]:
        """The stream has ended: return the last events and settle ``status``."""
        if self.status is not None:
            return []
        return self._run(final=True)

    def decode(self, chunks: Iterable[bytes]) -> Iterator[tuple]:
        """Feed every chunk, then finish; yield the events.  Stops pulling
        chunks as soon as the end state is known (the first torn or
        corrupt byte, unless resynchronising)."""
        for chunk in chunks:
            yield from self.feed(chunk)
            if self.status is not None:
                return
        yield from self.finish()

    def _run(self, final: bool) -> list[tuple]:
        if self._pending:
            rest, self._buf = self._buf[self._at:], b""
            self._buf = rest + b"".join(self._pending)
            self._pending.clear()
            self._base += self._at
            self._at = 0
        buf, base, at, gap = self._buf, self._base, self._at, self._gap
        gap_torn = self._gap_torn
        limit = None if self._size is None else self._size - base
        events: list[tuple] = []
        status = clean = None
        while True:
            if gap is None:
                if at == len(buf):
                    if final:
                        status = "clean"
                    else:
                        self._want = base + at + 1
                    break
                payload, end = _probe(buf, at, final, limit)
                if payload is not None:
                    events.append((payload, base + at, base + end))
                    at = clean = end
                    continue
                if end > 0:
                    self._want = base + end
                    break
                if not self._resync:
                    status = "torn" if end == 0 else "corrupt"
                    break
                gap, gap_torn = base + at, end == 0
                at += 1
                continue
            # Crossing a corrupt region: the next intact frame ends it.
            found = buf.find(MAGIC, at)
            if found == -1:
                if final:
                    if gap_torn:
                        status = "torn"
                    else:
                        events.append((None, gap, base + len(buf)))
                        status = "corrupt"
                else:
                    # Keep only what may be the start of a magic.
                    at = max(at, len(buf) - len(MAGIC) + 1)
                    self._want = base + len(buf) + 1
                break
            payload, end = _probe(buf, found, final, limit)
            if payload is None:
                if end > 0:
                    at = found
                    self._want = base + end
                    break
                at = found + 1
                continue
            events.append((None, gap, base + found))
            events.append((payload, base + found, base + end))
            gap = None
            at = clean = end
        self._at, self._gap, self._gap_torn = at, gap, gap_torn
        if clean is not None:
            self.clean_end = base + clean
        if status is not None:
            self.status = status
            self._buf = b""
            self._at = 0
        return events


def scan_frames(data: bytes) -> tuple[list[bytes], int, str]:
    """Decode consecutive frames from ``data``.

    Returns ``(payloads, clean_length, status)`` where ``clean_length`` is
    the byte offset just past the last intact frame and ``status`` is one
    of ``"clean"``, ``"torn"`` (incomplete tail) or ``"corrupt"`` (a full
    frame that fails magic/CRC).
    """
    decoder = FrameDecoder(size=len(data))
    payloads = [payload for payload, _, _ in decoder.decode((data,))]
    return payloads, decoder.clean_end, decoder.status


def iter_frames(data: bytes, pos: int = 0):
    """Yield ``(payload, start, end)`` for consecutive intact frames.

    Like :func:`scan_frames` but with byte offsets; stops at the first
    torn or corrupt byte.  The caller learns where it stopped from the
    last yielded ``end`` (or ``pos`` if nothing was yielded) and can
    classify the remainder with :func:`scan_frames` or resume with
    :func:`find_next_frame`.
    """
    yield from FrameDecoder(pos, size=len(data)).decode((data[pos:],))


def find_next_frame(data: bytes, pos: int) -> int:
    """Offset of the next *intact* frame at or after ``pos``, or -1.

    The salvage scan after a corrupt region: bit rot in the middle of a
    segment must not cost the intact records behind it, so recovery
    resynchronizes on the next verifiable frame header instead of
    discarding the rest of the file.
    """
    if not 0 <= pos < len(data):
        return -1
    decoder = FrameDecoder(pos, size=len(data), resync=True)
    decoder._gap = pos  # search from ``pos`` itself, as if a region began there
    # In chunks, so the frames behind the one found are not decoded too.
    chunks = (data[at:at + CHUNK_BYTES] for at in range(pos, len(data), CHUNK_BYTES))
    for payload, start, _ in decoder.decode(chunks):
        if payload is not None:
            return start
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
