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
  a zeroed block): the damaged bytes are quarantined, never silently
  dropped.

There is one decoder, :class:`FrameDecoder`: it is fed a stream in
chunks of any size and holds only the bytes of the frame it is on, so a
stream of any length decodes in one chunk plus the longest frame a header
in it claims — and a claim that runs past a stream of known size is torn
at once (or, when resynchronising, where a search for the next frame
starts), never waited for.  Snapshot ingest runs it strictly: a stream
fails whole at its first bad frame.

There is one recovery routine, :func:`recover`, and every reader of a
durable framed file calls it: the segment scan, the replication log's
open and the legacy spool journal import.  It resynchronises past each
corrupt region, copies the region into a :class:`Quarantine`, cuts a
torn or corrupt tail through the file's shim, and hands back the intact
records — bit rot costs the damaged records, never the intact ones
behind them, and never silently.
"""

from __future__ import annotations

import os
import re
import zlib
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.core.repository import (
    QuarantinedEntry, StorageStats, decode_key_token, encode_key_token)
from repro.faults import ShimFile
from repro.util.errors import RepositoryError
from repro.util.logging import get_logger

logger = get_logger("core.framing")

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


def fsync_path(path: str | os.PathLike) -> None:
    """fsync by path.  On a directory this flushes its own metadata — a
    create, rename or unlink is only durable once the parent directory's
    entry hits the platter."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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


# A store record's head inside damaged bytes: ``P <token>`` / ``D <token>``.
_TOKEN_RE = re.compile(rb"[PD] ([A-Za-z0-9_=-]+)")


class Quarantine:
    """A ``quarantine/`` directory: where damaged bytes are set aside.

    Damage is copied here byte for byte, counted in ``stats``
    (``corruption_detected``, ``quarantined``) and explained in a
    ``.reason`` file beside it — never skipped, never deleted.  A region
    is named ``<token>.json`` for the credential whose record header
    survived inside it, so ``myproxy-cluster scrub`` can re-fetch that
    entry from a peer, else for where it lay (``<file>+<offset>.corrupt``);
    a name already taken gets a ``.q<n>`` suffix.
    """

    def __init__(self, directory: str | os.PathLike, stats: StorageStats) -> None:
        self.directory = Path(directory)
        self.stats = stats

    def _target(self, name: str) -> Path:
        self.directory.mkdir(mode=0o700, exist_ok=True)
        target = self.directory / name
        n = 0
        while target.exists():
            n += 1
            target = self.directory / f"{name}.q{n}"
        return target

    def _note(self, target: Path, name: str, reason: str) -> None:
        try:
            target.with_name(target.name + ".reason").write_text(reason + "\n", "utf-8")
        except OSError:  # pragma: no cover - reason is best-effort
            pass
        self.stats.inc("corruption_detected")
        self.stats.inc("quarantined")
        logger.error("quarantined %s: %s", name, reason)

    def region(self, source: str, offset: int, pieces: Iterable[bytes],
               name: str | None = None) -> None:
        """Set aside the damaged bytes found at ``source+offset``, given in
        pieces; ``name`` replaces ``<source>+<offset>.corrupt`` when no
        record header survived.

        The pieces are copied as they come (a region read from a file
        arrives a chunk at a time), so the name is settled afterwards."""
        self.directory.mkdir(mode=0o700, exist_ok=True)
        partial = self.directory / f".{source}+{offset}.partial"
        size = 0
        # Holds the region's tail from where the first token match could
        # still start, or from the first match while it may grow.
        scan = b""
        match = None
        with open(partial, "wb") as out:
            for piece in pieces:
                out.write(piece)
                size += len(piece)
                if match is None or match.end() == len(scan):
                    scan += piece
                    match = _TOKEN_RE.search(scan)
                    if match is not None:
                        scan = scan[match.start():]
                        match = _TOKEN_RE.match(scan)
                    else:
                        scan = scan[-2:]
        identity = None
        if match is not None:
            try:
                identity = decode_key_token(match.group(1).decode("ascii"))
            except (ValueError, UnicodeDecodeError):
                identity = None
        if identity is not None:
            name = f"{encode_key_token(*identity)}.json"
        else:
            name = name or f"{source}+{offset}.corrupt"
        target = self._target(name)
        os.replace(partial, target)
        self._note(target, name,
                   f"corrupt region at {source}+{offset} ({size} bytes failed CRC)")

    def file(self, path: Path, reason: str) -> None:
        """Move a whole unreadable file here as ``<name>.corrupt``."""
        target = self._target(path.name + ".corrupt")
        os.replace(path, target)
        self._note(target, path.name, reason)

    def entries(self) -> list[QuarantinedEntry]:
        """Every artifact, with the credential's identity when its name
        carries one (spool-style ``<token>.json`` names included)."""
        if not self.directory.is_dir():
            return []
        out = []
        for path in sorted(self.directory.iterdir()):
            name = path.name
            if name.endswith(".reason"):
                continue
            username = cred_name = ""
            if ".json" in name:
                try:
                    username, cred_name = decode_key_token(name.split(".json", 1)[0])
                except (ValueError, UnicodeDecodeError):
                    username = cred_name = ""
            try:
                reason = path.with_name(name + ".reason").read_text("utf-8").strip()
            except OSError:
                reason = "corrupt"
            out.append(QuarantinedEntry(username, cred_name, path, reason))
        return out

    def clear(self, username: str, cred_name: str) -> int:
        """Remove the artifacts named for one credential (after a repair)."""
        removed = 0
        for item in self.entries():
            if (item.username, item.cred_name) == (username, cred_name):
                item.path.unlink(missing_ok=True)
                item.path.with_name(item.path.name + ".reason").unlink(missing_ok=True)
                removed += 1
        return removed


def recover(file: ShimFile, start: int, quarantine: Quarantine,
            name: str | None = None) -> Iterator[tuple[bytes, int, int]]:
    """Recover the framed file behind ``file`` from offset ``start``.

    Yields ``(payload, start, end)`` for every intact frame, in file
    order.  Decoding resynchronises: each corrupt region is streamed from
    the file into ``quarantine`` (``name`` as in :meth:`Quarantine.region`)
    and the scan resumes on the next intact frame.  Torn-looking bytes
    are a torn tail only when no intact frame follows them — a crashed
    append, never acknowledged — and are cut without a copy, counted as
    ``torn_truncated`` in ``quarantine.stats``; a corrupt tail is cut
    after its copy is made.  Cutting goes through ``file.truncate``,
    which fsyncs, so ``file.size`` is the recovered length once the
    records are exhausted.
    """
    size, source = file.size, os.path.basename(file.path)
    decoder = FrameDecoder(start, size=size, resync=True)
    for payload, at, end in decoder.decode(file_chunks(file.fd, start, size)):
        if payload is None:
            quarantine.region(source, at, file_chunks(file.fd, at, end), name)
        else:
            yield payload, at, end
    if decoder.status == "torn":
        quarantine.stats.inc("torn_truncated")
        logger.warning("%s: truncated %d torn bytes", source, size - decoder.clean_end)
    if decoder.status != "clean":
        file.truncate(decoder.clean_end)


def decode_single_frame(data: bytes) -> bytes:
    """Decode bytes that must hold exactly one intact frame and nothing else
    (a legacy spool entry, or one record read back by its index slot)."""
    decoder = FrameDecoder(size=len(data))
    payloads = [payload for payload, _, _ in decoder.decode((data,))]
    if decoder.status != "clean" or len(payloads) != 1:
        raise FramingError(
            f"expected one intact frame, found {len(payloads)} ({decoder.status})"
        )
    return payloads[0]


def is_framed(data: bytes) -> bool:
    return data.startswith(MAGIC)
