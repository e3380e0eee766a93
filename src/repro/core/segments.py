"""Packed segment-file storage: the repository's one durable engine.

Behind the :class:`~repro.core.repository.CredentialRepository`
interface, entries live packed inside append-only **segment files** —

    %MPS1 v1 id=<n> gen=<g> [covers=<a>-<b>]\\n     (one ASCII header line)
    <%MPF1 frame>*                                  (records, core/framing.py)

Record payloads (the bytes inside each CRC32 frame):

- ``P <token>\\n<entry-json>`` — a put; ``token`` is the URL-safe base64
  of ``username\\x00cred_name``;
- ``D <token>`` — a tombstone (delete).

Latest record wins.  The *active* segment is the write-ahead log itself:
an append is acknowledged only after its frame is fsynced, so a crash
leaves either the old state (torn tail, truncated at recovery — never
acknowledged) or the new one.  An in-memory index maps each key to its
newest record's ``(segment, offset, length)``; a small LRU caches hot
decoded entries so repeat retrievals skip the disk entirely.

Compaction rewrites the still-live records of every sealed segment into
one new segment (``gen`` bumped, ``covers`` naming the replaced id range)
and removes the inputs.  The fsynced output's atomic rename is the commit
point: a crash before it leaves an orphan ``.tmp`` that recovery discards
(the compaction never happened), a crash after it is rolled forward from
the ``covers=`` header alone.  Dead records (overwritten entries,
tombstones) survive at most until the next compaction, at which point the
input segments are zeroized before unlink (delete hygiene, batched).

The whole crash argument is three lines: append + fsync = ack; rename =
compaction commit; ``covers=`` = roll-forward.

Replica bootstrap ships a **snapshot stream** instead of replaying the
replication log: a header frame, every live record's raw frame bytes, and
a CRC-summed trailer (PROTOCOL.md §11).  Ingest writes them straight into
fresh segments with one fsync per segment — thousands of entries per
fsync instead of several fsyncs per entry.

Corruption handling follows the quarantine-never-skip rule: a corrupt
region inside a segment is copied byte-for-byte into ``quarantine/``
(named for the credential when the record header survives, so
``myproxy-cluster scrub`` can re-fetch it from a peer) and the scan
resynchronizes on the next intact frame — bit rot costs the damaged
records, never the intact ones behind them, and never silently.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import threading
import time
import zlib
from collections import OrderedDict
from pathlib import Path

from repro import faults
from repro.core.framing import (
    decode_single_frame,
    encode_frame,
    find_next_frame,
    is_framed,
    iter_frames,
    scan_frames,
)
from repro.core.repository import (
    QUARANTINE_DIR,
    CredentialRepository,
    QuarantinedEntry,
    RepositoryEntry,
    StorageStats,
    decode_key_token,
    encode_key_token,
)
from repro.faults import ShimFile
from repro.util.errors import NotFoundError, RepositoryError
from repro.util.logging import get_logger

logger = get_logger("core.segments")

SEGMENT_MAGIC = b"%MPS1"
SEGMENT_SUFFIX = ".mps"
#: Compaction redo log of older stores; ignored and unlinked at recovery
#: (the ``covers=`` header carries everything it recorded).
LEGACY_SEGMENT_WAL = "segments.wal"
#: Marker file written atomically by ``myproxy-admin migrate`` as the
#: commit point of a legacy-spool conversion: once present the segments
#: are authoritative, whatever ``*.json`` spool files still sit beside them.
BACKEND_MARKER = "storage.backend"
#: The legacy spool's redo journal, honoured (read-only) by the importer.
SPOOL_JOURNAL = "journal.wal"
#: Present while a snapshot ingest is in flight; a crash mid-bootstrap
#: leaves it behind and recovery discards the half-written segments (the
#: target of a bootstrap holds no acknowledged data of its own).
INGEST_MARKER = "snapshot.partial"

#: Dead segments are blanked in writes of this size before unlink.
_ZERO_CHUNK = 1 << 20

_FILE_RE = re.compile(r"^seg-(\d{8})(?:\.c(\d+))?\.mps$")
_TOKEN_RE = re.compile(rb"[PD] ([A-Za-z0-9_=-]+)")

# The storage kill points; every site here is enumerated by the chaos suite.
SITE_SEG_APPEND_PRE = faults.kill_point(
    "repo.segment.append.pre", "record about to be appended to the active segment")
SITE_SEG_APPEND_SYNCED = faults.kill_point(
    "repo.segment.append.synced", "record frame durable, index not yet updated")
SITE_SEG_SEAL_PRE = faults.kill_point(
    "repo.segment.seal.pre", "active segment full and sealed, successor not yet created")
SITE_SEG_COMPACT_PRE_RENAME = faults.kill_point(
    "repo.segment.compact.pre_rename",
    "compacted output fsynced, rename (the commit point) not yet done")
SITE_SEG_COMPACT_RENAMED = faults.kill_point(
    "repo.segment.compact.renamed",
    "compacted segment in place, covered inputs not yet removed")
SITE_SEG_COMPACT_CLEANED = faults.kill_point(
    "repo.segment.compact.cleaned",
    "covered inputs removed, in-memory index not yet switched over")


def _segment_name(seg_id: int, gen: int) -> str:
    if gen:
        return f"seg-{seg_id:08d}.c{gen}{SEGMENT_SUFFIX}"
    return f"seg-{seg_id:08d}{SEGMENT_SUFFIX}"


def _sidecar_path(path: Path) -> Path:
    """The segment's sidecar index (``seg-*.mps.idx``).

    A pure cache, SSTable-style: it pins the segment's byte size and
    whole-file CRC, so recovery can load the index without parsing a
    single frame — and falls back to the full scan the moment the
    segment grew, shrank, or rotted under it.
    """
    return path.with_name(path.name + ".idx")


def _fsync_path(path: Path) -> None:
    """fsync by path.  On a directory this flushes its own metadata — a
    create, rename or unlink is only durable once the parent directory's
    entry hits the platter."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _segment_header(seg_id: int, gen: int, covers: tuple[int, int] | None) -> bytes:
    line = f"{SEGMENT_MAGIC.decode()} v1 id={seg_id} gen={gen}"
    if covers is not None:
        line += f" covers={covers[0]}-{covers[1]}"
    return (line + "\n").encode("ascii")


def _parse_header(data: bytes) -> tuple[int, int, tuple[int, int] | None, int]:
    """Returns ``(id, gen, covers, header_length)`` or raises RepositoryError."""
    nl = data.find(b"\n", 0, 128)
    if nl == -1 or not data.startswith(SEGMENT_MAGIC + b" v1 "):
        raise RepositoryError("bad segment header")
    fields: dict[str, str] = {}
    for part in data[len(SEGMENT_MAGIC) + 4:nl].decode("ascii", "replace").split():
        key, _, value = part.partition("=")
        fields[key] = value
    try:
        seg_id = int(fields["id"])
        gen = int(fields.get("gen", "0"))
        covers = None
        if "covers" in fields:
            a, _, b = fields["covers"].partition("-")
            covers = (int(a), int(b))
    except (KeyError, ValueError) as exc:
        raise RepositoryError(f"bad segment header: {exc}") from exc
    return seg_id, gen, covers, nl + 1


class _Segment:
    """One on-disk segment and its byte accounting."""

    __slots__ = ("path", "seg_id", "gen", "covers", "size",
                 "total_record_bytes", "dead_bytes", "read_fd")

    def __init__(self, path: Path, seg_id: int, gen: int,
                 covers: tuple[int, int] | None = None, size: int = 0) -> None:
        self.path = path
        self.seg_id = seg_id
        self.gen = gen
        self.covers = covers
        self.size = size
        self.total_record_bytes = 0
        self.dead_bytes = 0
        self.read_fd: int | None = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.seg_id, self.gen)

    def fd(self) -> int:
        if self.read_fd is None:
            self.read_fd = os.open(self.path, os.O_RDONLY)
        return self.read_fd

    def close(self) -> None:
        if self.read_fd is not None:
            try:
                os.close(self.read_fd)
            except OSError:  # pragma: no cover - teardown
                pass
            self.read_fd = None


def put_record(username: str, cred_name: str, document: str) -> bytes:
    token = encode_key_token(username, cred_name)
    return b"P " + token.encode("ascii") + b"\n" + document.encode("utf-8")


def tombstone_record(username: str, cred_name: str) -> bytes:
    return b"D " + encode_key_token(username, cred_name).encode("ascii")


def parse_record(payload: bytes) -> tuple[str, str, str, bytes | None]:
    """Decode a record payload into ``(kind, username, cred_name, document)``."""
    kind = payload[:1].decode("ascii", "replace")
    if kind == "P":
        head, _, document = payload.partition(b"\n")
        token = head[2:].decode("ascii")
        username, cred_name = decode_key_token(token)
        return "P", username, cred_name, document
    if kind == "D":
        username, cred_name = decode_key_token(payload[2:].decode("ascii"))
        return "D", username, cred_name, None
    raise RepositoryError(f"unknown segment record kind {kind!r}")


class SegmentRepository(CredentialRepository):
    """LSM-flavored packed-segment credential storage.

    Opening runs recovery: orphan temp files and half-ingested snapshots
    are discarded, interrupted compactions roll forward, every segment is
    scanned sequentially to rebuild the index, torn tails are truncated
    and corrupt regions quarantined (never skipped).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        injector: faults.FaultInjector | None = None,
        segment_max_bytes: int = 32 * 1024 * 1024,
        compact_ratio: float = 0.5,
        cache_entries: int = 1024,
        compact_interval: float = 0.0,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        os.chmod(self.root, 0o700)
        self._lock = threading.RLock()
        self._injector = injector if injector is not None else faults.active()
        self.stats = StorageStats()
        self.segment_max_bytes = max(int(segment_max_bytes), 4096)
        self.compact_ratio = float(compact_ratio)
        self._quarantine_dir = self.root / QUARANTINE_DIR
        # key -> (segment key, frame offset, frame length)
        self._index: dict[tuple[str, str], tuple[tuple[int, int], int, int]] = {}
        self._by_user: dict[str, set[str]] = {}
        self._segments: dict[tuple[int, int], _Segment] = {}
        self._active: _Segment | None = None
        self._active_file: ShimFile | None = None
        # Sidecar bookkeeping for the active segment: every record
        # appended (in order) and a rolling CRC of the file's bytes.
        # ``None`` CRC means the file's tail state is uncertain (a failed
        # or injected write) — no sidecar is written then.
        self._active_records: list[tuple[str, str, str, int, int]] = []
        self._active_crc: int | None = 0
        self._cache: OrderedDict[tuple[str, str], RepositoryEntry] = OrderedDict()
        self._cache_entries = max(int(cache_entries), 0)
        self._streams_active = 0
        self._segment_gauge = None
        self._closed = False

        started = time.perf_counter()
        self._recover()
        self.stats.observe_recovery(time.perf_counter() - started)

        self._compactor_stop = threading.Event()
        self._compactor: threading.Thread | None = None
        if compact_interval > 0:
            self._compactor = threading.Thread(
                target=self._compact_loop, args=(float(compact_interval),),
                daemon=True, name="segment-compactor",
            )
            self._compactor.start()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        # Step 1: a snapshot ingest that never finished holds no
        # acknowledged data (ingest requires an empty repository) — drop
        # its half-written segments wholesale.
        ingest_marker = self.root / INGEST_MARKER
        if ingest_marker.exists():
            for path in self.root.glob(f"seg-*{SEGMENT_SUFFIX}"):
                path.unlink(missing_ok=True)
            for path in self.root.glob(f"seg-*{SEGMENT_SUFFIX}.idx"):
                path.unlink(missing_ok=True)
            ingest_marker.unlink(missing_ok=True)
            logger.warning("discarded segments of an interrupted snapshot ingest")

        # Step 2: orphan compaction temp files.  The rename is the commit
        # point, so an output still named ``.tmp`` is a compaction that
        # never happened; its inputs are intact.
        for orphan in self.root.glob(f"seg-*{SEGMENT_SUFFIX}.tmp"):
            orphan.unlink(missing_ok=True)

        # Step 3: roll interrupted compactions forward.  A renamed output
        # is complete and fsynced, and its ``covers=`` header names the
        # ids it replaced: every lower-generation segment in that range
        # is a leftover input.
        files = self._segment_files()
        covering: list[tuple[Path, int, tuple[int, int]]] = []
        for path, _, gen in files:
            try:
                with open(path, "rb") as fh:
                    _, _, covers, _ = _parse_header(fh.read(128))
            except (RepositoryError, OSError):
                continue
            if covers is not None:
                covering.append((path, gen, covers))
        survivors = []
        for path, seg_id, gen in files:
            covered_by = next(
                (other for other, other_gen, covers in covering
                 if other_gen > gen and covers[0] <= seg_id <= covers[1]),
                None,
            )
            if covered_by is not None:
                logger.info("recovery: dropping %s (superseded by %s)",
                            path.name, covered_by.name)
                self._zeroize_unlink(path)
            else:
                survivors.append((path, seg_id, gen))

        # Older stores redo-logged compaction here; ``covers=`` already
        # finished whatever it recorded.
        (self.root / LEGACY_SEGMENT_WAL).unlink(missing_ok=True)

        # Step 4: sequential load, oldest first; latest record wins.  A
        # segment with a valid sidecar index (size + whole-file CRC match)
        # loads without parsing a frame; anything else gets the full scan
        # and — if it is staying sealed — a freshly healed sidecar, so the
        # next recovery is fast again.  Only the tail candidate (the
        # newest plain segment, which may become the active one) keeps
        # its record list in memory.
        tail_path = None
        tail_id = -1
        for path, seg_id, gen in survivors:
            if gen == 0 and seg_id > tail_id:
                tail_path, tail_id = path, seg_id
        tail_records: list[tuple[str, str, str, int, int]] = []
        tail_crc: int | None = 0
        for path, seg_id, gen in survivors:
            records, crc, from_sidecar = self._scan_segment(path, seg_id, gen)
            if records is None:
                continue  # whole file quarantined
            if path is tail_path:
                tail_records, tail_crc = records, crc
            elif not from_sidecar:
                seg = self._segments.get((seg_id, gen))
                if seg is not None:
                    self._write_sidecar(seg.path, seg.size, records, crc)

        # Step 5: reuse the newest plain segment as the active one if it
        # has headroom, else roll a fresh segment.
        tail = None
        for seg in self._segments.values():
            if seg.gen == 0 and (tail is None or seg.seg_id > tail.seg_id):
                tail = seg
        if tail is not None and tail.size < self.segment_max_bytes:
            self._active = tail
            self._active_file = self._open_shim(tail.path)
            self._active_records = tail_records
            self._active_crc = tail_crc
        else:
            if tail is not None:
                self._write_sidecar(tail.path, tail.size, tail_records, tail_crc)
            self._roll_active()

    def _segment_files(self) -> list[tuple[Path, int, int]]:
        out = []
        for path in self.root.iterdir():
            match = _FILE_RE.match(path.name)
            if match:
                out.append((path, int(match.group(1)),
                            int(match.group(2)) if match.group(2) else 0))
        out.sort(key=lambda row: (row[1], row[2]))
        return out

    def _load_sidecar(self, path: Path, data: bytes, crc: int):
        """Validated sidecar record rows, or ``None`` (→ full scan)."""
        try:
            doc = json.loads(_sidecar_path(path).read_text("utf-8"))
            if doc.get("v") != 1 or int(doc["size"]) != len(data):
                return None
            if int(doc["crc"]) != crc:
                return None
            records = []
            for kind, username, cred_name, offset, length in doc["records"]:
                if kind not in ("P", "D"):
                    return None
                records.append(
                    (kind, str(username), str(cred_name), int(offset), int(length))
                )
            return records
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _write_sidecar(self, path: Path, size: int,
                       records: list[tuple[str, str, str, int, int]],
                       crc: int | None) -> None:
        """Best-effort: a lost or torn sidecar only costs the next
        recovery a scan, never correctness."""
        if crc is None:
            return
        doc = {"v": 1, "size": size, "crc": crc,
               "records": [list(r) for r in records]}
        target = _sidecar_path(path)
        tmp = target.with_name(target.name + ".tmp")
        try:
            tmp.write_text(json.dumps(doc, separators=(",", ":")), "utf-8")
            os.replace(tmp, target)
        except OSError:  # pragma: no cover - cache only
            tmp.unlink(missing_ok=True)

    def _scan_segment(
        self, path: Path, seg_id: int, gen: int
    ) -> tuple[list[tuple[str, str, str, int, int]] | None, int | None, bool]:
        """Load one segment into the index.

        Returns ``(records, crc, from_sidecar)`` — the ordered record
        rows and the CRC of the segment's (possibly truncated) bytes —
        or ``(None, None, False)`` when the whole file was quarantined.
        """
        try:
            data = path.read_bytes()
            _, _, covers, pos = _parse_header(data)
        except (RepositoryError, OSError) as exc:
            # The header itself is gone: quarantine the whole file.
            self._quarantine_file(path, f"unreadable segment header: {exc}")
            return None, None, False
        seg = _Segment(path, seg_id, gen, covers, size=len(data))
        segkey = seg.key

        crc = zlib.crc32(data)
        sidecar = self._load_sidecar(path, data, crc)
        if sidecar is not None:
            for kind, username, cred_name, offset, length in sidecar:
                self._apply_record(
                    segkey, kind, (username, cred_name), offset, length, seg
                )
            self._segments[segkey] = seg
            return sidecar, crc, True

        records: list[tuple[str, str, str, int, int]] = []
        truncate_to: int | None = None
        while pos < len(data):
            stopped = pos
            for payload, start, end in iter_frames(data, pos):
                row = self._index_record(segkey, payload, start, end - start, seg)
                if row is not None:
                    records.append((row[0], row[1], row[2], start, end - start))
                stopped = end
            pos = stopped
            if pos >= len(data):
                break
            _, _, status = scan_frames(data[pos:])
            if status == "torn":
                # A crashed append: never acknowledged, safe to drop.
                self.stats.inc("torn_truncated")
                truncate_to = pos
                logger.warning("segment %s: truncated %d torn bytes",
                               path.name, len(data) - pos)
                break
            # Corrupt: quarantine the damaged region, then resynchronize
            # on the next intact frame so the records behind it survive.
            nxt = find_next_frame(data, pos + 1)
            end_of_gap = nxt if nxt != -1 else len(data)
            self._quarantine_region(path.name, pos, data[pos:end_of_gap])
            seg.dead_bytes += end_of_gap - pos
            seg.total_record_bytes += end_of_gap - pos
            if nxt == -1:
                truncate_to = pos
                break
            pos = nxt
        if truncate_to is not None:
            with open(path, "r+b") as fh:
                fh.truncate(truncate_to)
                fh.flush()
                os.fsync(fh.fileno())
            seg.size = truncate_to
            crc = zlib.crc32(data[:truncate_to])
        self._segments[segkey] = seg
        return records, crc, False

    def _index_record(self, segkey: tuple[int, int], payload: bytes,
                      offset: int, length: int,
                      seg: _Segment) -> tuple[str, str, str] | None:
        """Parse + apply one scanned record; returns its sidecar row head
        ``(kind, username, cred_name)``, or ``None`` if quarantined."""
        try:
            kind = payload[:1]
            if kind == b"P":
                head, _, _ = payload.partition(b"\n")
                key = decode_key_token(head[2:].decode("ascii"))
            elif kind == b"D":
                key = decode_key_token(payload[2:].decode("ascii"))
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except (ValueError, UnicodeDecodeError):
            # Good CRC, bad writer: quarantine the record, keep scanning.
            seg.total_record_bytes += length
            self.stats.inc("corruption_detected")
            self._quarantine_region(seg.path.name, offset, payload)
            seg.dead_bytes += length
            return None
        kind_text = "P" if kind == b"P" else "D"
        self._apply_record(segkey, kind_text, key, offset, length, seg)
        return kind_text, key[0], key[1]

    def _apply_record(self, segkey: tuple[int, int], kind: str,
                      key: tuple[str, str], offset: int, length: int,
                      seg: _Segment) -> None:
        seg.total_record_bytes += length
        old = self._index.get(key)
        if old is not None:
            old_seg = self._segments.get(old[0]) if old[0] != segkey else seg
            if old_seg is not None:
                old_seg.dead_bytes += old[2]
        if kind == "P":
            self._index[key] = (segkey, offset, length)
            self._by_user.setdefault(key[0], set()).add(key[1])
        else:
            seg.dead_bytes += length  # the tombstone itself is dead weight
            if old is not None:
                self._index.pop(key, None)
                names = self._by_user.get(key[0])
                if names is not None:
                    names.discard(key[1])
                    if not names:
                        self._by_user.pop(key[0], None)

    # ------------------------------------------------------------------
    # quarantine (never-skip)
    # ------------------------------------------------------------------

    def _quarantine_target(self, name: str) -> Path:
        self._quarantine_dir.mkdir(mode=0o700, exist_ok=True)
        target = self._quarantine_dir / name
        n = 0
        while target.exists():
            n += 1
            target = self._quarantine_dir / f"{name}.q{n}"
        return target

    def _write_quarantine(self, name: str, data: bytes, reason: str) -> None:
        target = self._quarantine_target(name)
        target.write_bytes(data)
        try:
            target.with_name(target.name + ".reason").write_text(reason + "\n", "utf-8")
        except OSError:  # pragma: no cover - reason is best-effort
            pass
        self.stats.inc("quarantined")
        logger.error("quarantined %s: %s", name, reason)

    def _quarantine_region(self, segment_name: str, offset: int, data: bytes) -> None:
        """Set aside a corrupt byte range, named for its credential when
        the record header inside survived the damage."""
        self.stats.inc("corruption_detected")
        match = _TOKEN_RE.search(data)
        identity = None
        if match:
            try:
                identity = decode_key_token(match.group(1).decode("ascii"))
            except (ValueError, UnicodeDecodeError):
                identity = None
        reason = (f"corrupt region at {segment_name}+{offset} "
                  f"({len(data)} bytes failed CRC)")
        if identity is not None:
            token = encode_key_token(*identity)
            self._write_quarantine(f"{token}.json", data, reason)
        else:
            self._write_quarantine(f"{segment_name}+{offset}.corrupt", data, reason)

    def _quarantine_file(self, path: Path, reason: str) -> None:
        target = self._quarantine_target(path.name + ".corrupt")
        os.replace(path, target)
        _sidecar_path(path).unlink(missing_ok=True)
        try:
            target.with_name(target.name + ".reason").write_text(reason + "\n", "utf-8")
        except OSError:  # pragma: no cover
            pass
        self.stats.inc("corruption_detected")
        self.stats.inc("quarantined")
        logger.error("quarantined %s: %s", path.name, reason)

    def quarantined(self) -> list[QuarantinedEntry]:
        """Every quarantined artifact, with identity when recoverable.

        Spool-style ``<token>.json`` names (which migration preserves
        verbatim) and segment-region artifacts are both listed, so
        ``myproxy-cluster scrub`` repairs either kind from peers.
        """
        if not self._quarantine_dir.is_dir():
            return []
        out = []
        for path in sorted(self._quarantine_dir.iterdir()):
            name = path.name
            if name.endswith(".reason"):
                continue
            username = cred_name = ""
            if ".json" in name:
                token = name.split(".json", 1)[0]
                try:
                    username, cred_name = decode_key_token(token)
                except (ValueError, UnicodeDecodeError):
                    username = cred_name = ""
            try:
                reason = path.with_name(name + ".reason").read_text("utf-8").strip()
            except OSError:
                reason = "corrupt"
            out.append(QuarantinedEntry(username, cred_name, path, reason))
        return out

    def clear_quarantine(self, username: str, cred_name: str) -> int:
        removed = 0
        for item in self.quarantined():
            if (item.username, item.cred_name) == (username, cred_name):
                item.path.unlink(missing_ok=True)
                item.path.with_name(item.path.name + ".reason").unlink(missing_ok=True)
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # segment plumbing
    # ------------------------------------------------------------------

    def _fsync_root(self) -> None:
        _fsync_path(self.root)

    def _open_shim(self, path: Path) -> ShimFile:
        return ShimFile(
            path,
            self._injector,
            write_site="repo.segment.write",
            fsync_site="repo.segment.fsync",
        )

    def _zeroize_unlink(self, path: Path) -> None:
        """Blank a dead segment before unlink (batched delete hygiene)."""
        try:
            remaining = path.stat().st_size
            zeros = b"\0" * min(remaining, _ZERO_CHUNK)
            with open(path, "r+b") as fh:
                while remaining > 0:
                    remaining -= fh.write(zeros[:remaining])
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:  # pragma: no cover - already gone
            pass
        path.unlink(missing_ok=True)
        _sidecar_path(path).unlink(missing_ok=True)
        self._fsync_root()

    def _roll_active(self) -> None:
        next_id = max((s.seg_id for s in self._segments.values()), default=0) + 1
        if self._active is not None and self._active.seg_id >= next_id:
            next_id = self._active.seg_id + 1
        path = self.root / _segment_name(next_id, 0)
        seg = _Segment(path, next_id, 0)
        shim = self._open_shim(path)
        header = _segment_header(next_id, 0, None)
        shim.write(header)
        shim.fsync()
        # Every later acknowledged append lands in this file: its
        # directory entry must be durable before the first of them.
        self._fsync_root()
        seg.size = shim.size
        self._segments[seg.key] = seg
        self._active = seg
        self._active_file = shim
        self._active_records = []
        self._active_crc = zlib.crc32(header)

    def _seal_and_roll(self) -> None:
        """Seal the full active segment and open its successor."""
        self._active_file.fsync()
        old = self._active
        self._write_sidecar(old.path, old.size, self._active_records,
                            self._active_crc)
        self._injector.fire(SITE_SEG_SEAL_PRE)
        # Reads of the sealed segment switch to a read-only fd; the shim
        # is closed so the injector stops tracking it.
        self._active_file.close()
        self._active_file = None
        self._roll_active()
        logger.info("sealed %s at %d bytes", old.path.name, old.size)

    def _append_record(
        self, payload: bytes, meta: tuple[str, str, str]
    ) -> tuple[tuple[int, int], int, int]:
        """Append one framed record to the active segment; fsync; return
        its ``(segment key, offset, length)``.  An ack only ever follows
        a completed fsync — the active segment IS the write-ahead log.

        ``meta`` is the record's ``(kind, username, cred_name)`` for the
        sidecar index written when this segment seals."""
        frame = encode_frame(payload)
        if self._active.size + len(frame) > self.segment_max_bytes and (
            self._active.total_record_bytes > 0
        ):
            self._seal_and_roll()
        shim = self._active_file
        offset = shim.size
        try:
            shim.write(frame)
            shim.fsync()
        except OSError:
            # Survived a failed append (EIO/ENOSPC/short write): trim the
            # partial frame so it cannot shadow the segment's tail.
            try:
                shim.truncate(offset)
                self._active.size = offset
            except OSError:  # pragma: no cover - disk truly gone
                self._active_crc = None
                pass
            raise
        except Exception:
            # An injected tear may have left partial bytes: the tail
            # state is uncertain, so never trust a sidecar built on it.
            self._active_crc = None
            raise
        self._active.size = shim.size
        self._active_records.append((meta[0], meta[1], meta[2], offset, len(frame)))
        if self._active_crc is not None:
            self._active_crc = zlib.crc32(frame, self._active_crc)
        return self._active.key, offset, len(frame)

    # ------------------------------------------------------------------
    # CredentialRepository interface
    # ------------------------------------------------------------------

    def put(self, entry: RepositoryEntry) -> None:
        document = entry.to_json()
        payload = put_record(entry.username, entry.cred_name, document)
        with self._lock:
            try:
                self._injector.fire(SITE_SEG_APPEND_PRE)
                segkey, offset, length = self._append_record(
                    payload, ("P", entry.username, entry.cred_name)
                )
                self._injector.fire(SITE_SEG_APPEND_SYNCED)
            except faults.InjectedFault as exc:
                raise RepositoryError(f"storage write failed: {exc}") from exc
            except OSError as exc:
                raise RepositoryError(f"storage write failed: {exc}") from exc
            key = entry.key
            old = self._index.get(key)
            if old is not None:
                old_seg = self._segments.get(old[0])
                if old_seg is not None:
                    old_seg.dead_bytes += old[2]
            self._index[key] = (segkey, offset, length)
            self._by_user.setdefault(entry.username, set()).add(entry.cred_name)
            seg = self._segments[segkey]
            seg.total_record_bytes += length
            self._cache_put(key, entry)
            self._update_gauges()
            self._maybe_compact_locked()

    def get(self, username: str, cred_name: str) -> RepositoryEntry:
        key = (username, cred_name)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.stats.inc("cache_hits")
                return cached
            slot = self._index.get(key)
            if slot is None:
                raise NotFoundError(
                    f"no credential {cred_name!r} stored for user {username!r}"
                )
            self.stats.inc("cache_misses")
            entry = self._read_entry(key, slot)
            self._cache_put(key, entry)
            return entry

    def _read_entry(self, key: tuple[str, str],
                    slot: tuple[tuple[int, int], int, int]) -> RepositoryEntry:
        segkey, offset, length = slot
        seg = self._segments[segkey]
        fd = (self._active_file.fd
              if self._active is seg and self._active_file is not None
              else seg.fd())
        raw = os.pread(fd, length, offset)
        frames = list(iter_frames(raw))
        if len(frames) != 1 or frames[0][2] != length:
            # Bit rot under a live index entry: set it aside for repair
            # and fail the read loudly — never serve a corrupt credential.
            self._quarantine_region(seg.path.name, offset, raw)
            seg.dead_bytes += length
            self._index.pop(key, None)
            names = self._by_user.get(key[0])
            if names is not None:
                names.discard(key[1])
                if not names:
                    self._by_user.pop(key[0], None)
            raise RepositoryError(
                f"credential {key[1]!r} for user {key[0]!r} is corrupt "
                f"and has been quarantined"
            )
        kind, username, cred_name, document = parse_record(frames[0][0])
        if kind != "P" or (username, cred_name) != key:  # pragma: no cover
            raise RepositoryError(f"index points at foreign record for {key}")
        return RepositoryEntry.from_json(document.decode("utf-8"))

    def delete(self, username: str, cred_name: str) -> bool:
        key = (username, cred_name)
        with self._lock:
            old = self._index.get(key)
            if old is None:
                return False
            payload = tombstone_record(username, cred_name)
            try:
                self._injector.fire(SITE_SEG_APPEND_PRE)
                segkey, offset, length = self._append_record(
                    payload, ("D", username, cred_name)
                )
                self._injector.fire(SITE_SEG_APPEND_SYNCED)
            except faults.InjectedFault as exc:
                raise RepositoryError(f"storage delete failed: {exc}") from exc
            except OSError as exc:
                raise RepositoryError(f"storage delete failed: {exc}") from exc
            old_seg = self._segments.get(old[0])
            if old_seg is not None:
                old_seg.dead_bytes += old[2]
            seg = self._segments[segkey]
            seg.total_record_bytes += length
            seg.dead_bytes += length
            self._index.pop(key, None)
            names = self._by_user.get(username)
            if names is not None:
                names.discard(cred_name)
                if not names:
                    self._by_user.pop(username, None)
            self._cache.pop(key, None)
            self._update_gauges()
            self._maybe_compact_locked()
            return True

    def list_for(self, username: str) -> list[RepositoryEntry]:
        with self._lock:
            names = sorted(self._by_user.get(username, ()))
            return [self.get(username, name) for name in names]

    def count(self) -> int:
        with self._lock:
            return len(self._index)

    def usernames(self) -> list[str]:
        with self._lock:
            return sorted(self._by_user)

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------

    def _cache_put(self, key: tuple[str, str], entry: RepositoryEntry) -> None:
        if self._cache_entries <= 0:
            return
        self._cache[key] = entry
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_entries:
            self._cache.popitem(last=False)

    def cache_info(self) -> dict:
        with self._lock:
            hits = self.stats.get("cache_hits")
            misses = self.stats.get("cache_misses")
            total = hits + misses
            return {
                "entries": len(self._cache),
                "capacity": self._cache_entries,
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / total if total else 0.0,
            }

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def _sealed(self) -> list[_Segment]:
        return [s for s in self._segments.values() if s is not self._active]

    def _maybe_compact_locked(self) -> None:
        if self.compact_ratio <= 0 or self._streams_active:
            return
        sealed = self._sealed()
        total = sum(s.total_record_bytes for s in sealed)
        dead = sum(s.dead_bytes for s in sealed)
        if total > 0 and dead > 0 and dead / total >= self.compact_ratio:
            self._compact_locked()

    def maybe_compact(self) -> None:
        with self._lock:
            self._maybe_compact_locked()

    def compact(self) -> int:
        """Rewrite live records of every sealed segment; returns bytes freed."""
        with self._lock:
            if self._streams_active:
                return 0
            return self._compact_locked()

    def _compact_locked(self) -> int:
        sealed = {s.key: s for s in self._sealed()}
        if not sealed:
            return 0
        before = sum(s.size for s in sealed.values())
        out_id = max(seg_id for seg_id, _ in sealed)
        out_gen = max(gen for _, gen in sealed) + 1
        covers = (0, out_id)
        name = _segment_name(out_id, out_gen)
        final = self.root / name
        tmp = final.with_name(final.name + ".tmp")

        # Write every live record (and nothing else: overwritten entries
        # and tombstones die here) into the output, tracking new offsets.
        moved: list[tuple[tuple[str, str], int, int]] = []
        live = sorted(
            ((key, slot) for key, slot in self._index.items() if slot[0] in sealed),
            key=lambda kv: (kv[1][0], kv[1][1]),
        )
        fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o600)
        out_records: list[tuple[str, str, str, int, int]] = []
        try:
            header = _segment_header(out_id, out_gen, covers)
            os.write(fd, header)
            pos = len(header)
            out_crc = zlib.crc32(header)
            new_total = 0
            for key, (segkey, offset, length) in live:
                src = sealed[segkey]
                raw = os.pread(src.fd(), length, offset)
                os.write(fd, raw)
                moved.append((key, pos, length))
                out_records.append(("P", key[0], key[1], pos, length))
                out_crc = zlib.crc32(raw, out_crc)
                pos += length
                new_total += length
            os.fsync(fd)
        finally:
            os.close(fd)

        self._injector.fire(SITE_SEG_COMPACT_PRE_RENAME)
        os.replace(tmp, final)
        self._fsync_root()
        self._injector.fire(SITE_SEG_COMPACT_RENAMED)
        for seg in sealed.values():
            seg.close()
            self._zeroize_unlink(seg.path)
        self._injector.fire(SITE_SEG_COMPACT_CLEANED)

        out = _Segment(final, out_id, out_gen, covers, size=pos)
        out.total_record_bytes = new_total
        self._write_sidecar(final, pos, out_records, out_crc)
        for segkey in sealed:
            self._segments.pop(segkey, None)
        self._segments[out.key] = out
        for key, offset, length in moved:
            self._index[key] = (out.key, offset, length)
        self.stats.inc("compactions")
        self._update_gauges()
        freed = before - pos
        logger.info("compacted %d segment(s) into %s: %d bytes freed",
                    len(sealed), name, freed)
        return freed

    def _compact_loop(self, interval: float) -> None:
        while not self._compactor_stop.wait(interval):
            try:
                self.maybe_compact()
            except RepositoryError:  # pragma: no cover - keep the loop alive
                logger.exception("background compaction failed")

    # ------------------------------------------------------------------
    # snapshot shipping (replica bootstrap; PROTOCOL.md §11)
    # ------------------------------------------------------------------

    def stream_snapshot(self, extra_meta: dict | None = None,
                        batch_bytes: int = 256 * 1024):
        """Yield the snapshot stream: header frame, raw record frames in
        ~``batch_bytes`` chunks, CRC-summed trailer frame.

        Compaction is held off while a stream is in flight (appends and
        deletes proceed — they never move existing bytes).
        """
        with self._lock:
            self._streams_active += 1
            plan = sorted(
                ((key, slot) for key, slot in self._index.items()),
                key=lambda kv: (kv[1][0], kv[1][1]),
            )
        try:
            header = {"snapshot": 1, "format": "MPS1", "entries": len(plan)}
            header.update(extra_meta or {})
            yield encode_frame(b"H " + json.dumps(header, sort_keys=True).encode())
            crc = 0
            batch = bytearray()
            shipped = 0
            for key, (segkey, offset, length) in plan:
                with self._lock:
                    seg = self._segments.get(segkey)
                    if seg is None:  # pragma: no cover - defensive
                        continue
                    fd = (self._active_file.fd
                          if self._active is seg and self._active_file is not None
                          else seg.fd())
                    raw = os.pread(fd, length, offset)
                crc = zlib.crc32(raw, crc)
                batch += raw
                shipped += 1
                if len(batch) >= batch_bytes:
                    yield bytes(batch)
                    batch.clear()
            if batch:
                yield bytes(batch)
            trailer = {"end": True, "entries": shipped, "crc": crc}
            yield encode_frame(b"T " + json.dumps(trailer, sort_keys=True).encode())
            self.stats.inc("snapshot_shipped", shipped)
        finally:
            with self._lock:
                self._streams_active -= 1

    def ingest_snapshot(self, chunks) -> int:
        """Bootstrap this (empty) repository from a snapshot stream.

        Records are written straight into fresh segments — one fsync per
        sealed segment plus one at the end, not per entry.  The trailer's
        count and CRC must match or the ingest fails whole (and recovery
        discards the partial segments via the ingest marker).
        """
        with self._lock:
            if self._index:
                raise RepositoryError(
                    "snapshot ingest requires an empty repository "
                    f"({len(self._index)} entries present)"
                )
            marker = self.root / INGEST_MARKER
            marker.write_bytes(b"ingest in flight\n")
            self._fsync_root()
            buf = bytearray()
            crc = 0
            count = 0
            header_seen = False
            trailer: dict | None = None
            try:
                for chunk in chunks:
                    buf += chunk
                    pos = 0
                    for payload, start, end in iter_frames(bytes(buf)):
                        pos = end
                        tag = payload[:2]
                        if tag == b"H ":
                            header_seen = True
                            continue
                        if tag == b"T ":
                            trailer = json.loads(payload[2:].decode("utf-8"))
                            continue
                        if not header_seen:
                            raise RepositoryError("snapshot stream missing header")
                        raw = bytes(buf[start:end])
                        crc = zlib.crc32(raw, crc)
                        self._ingest_record(payload, raw)
                        count += 1
                    del buf[:pos]
                if trailer is None:
                    raise RepositoryError("snapshot stream ended without trailer")
                if buf:
                    raise RepositoryError(
                        f"snapshot stream left {len(buf)} undecodable bytes"
                    )
                if int(trailer.get("entries", -1)) != count:
                    raise RepositoryError(
                        f"snapshot shipped {trailer.get('entries')} entries, "
                        f"received {count}"
                    )
                if int(trailer.get("crc", -1)) != crc:
                    raise RepositoryError("snapshot stream failed its CRC sum")
                self._active_file.fsync()
                self._active.size = self._active_file.size
                marker.unlink(missing_ok=True)
                self._fsync_root()
            except Exception:
                # Leave the marker: recovery (or the retry below) wipes
                # the half-written segments.  Reset in-memory state now.
                self._cache.clear()
                self._index.clear()
                self._by_user.clear()
                self._active_crc = None
                raise
            self.stats.inc("snapshot_ingested", count)
            self._update_gauges()
            return count

    def _ingest_record(self, payload: bytes, raw: bytes) -> None:
        """Append one already-framed record on the bulk (per-segment
        fsync) path and index it."""
        if self._active.size + len(raw) > self.segment_max_bytes and (
            self._active.total_record_bytes > 0
        ):
            self._active_file.fsync()
            self._active.size = self._active_file.size
            self._seal_and_roll()
        shim = self._active_file
        offset = shim.size
        os.write(shim.fd, raw)
        shim.size += len(raw)
        self._active.size = shim.size
        if self._active_crc is not None:
            self._active_crc = zlib.crc32(raw, self._active_crc)
        row = self._index_record(
            self._active.key, payload, offset, len(raw), self._active
        )
        if row is not None:
            self._active_records.append((row[0], row[1], row[2], offset, len(raw)))

    def bulk_load(self, entries) -> int:
        """Load entries on the bulk path (``myproxy-admin migrate``)."""
        with self._lock:
            n = 0
            for entry in entries:
                payload = put_record(entry.username, entry.cred_name, entry.to_json())
                self._ingest_record(payload, encode_frame(payload))
                n += 1
            self._active_file.fsync()
            self._active.size = self._active_file.size
            self._fsync_root()
            self._update_gauges()
            return n

    # ------------------------------------------------------------------
    # scrub + metrics
    # ------------------------------------------------------------------

    def scrub(self) -> dict:
        """Re-verify every indexed record's CRC now; quarantine failures."""
        started = time.perf_counter()
        moved = 0
        with self._lock:
            for key, slot in list(self._index.items()):
                try:
                    self._read_entry(key, slot)
                except RepositoryError:
                    moved += 1
        duration = time.perf_counter() - started
        self.stats.observe_recovery(duration)
        return {
            "checked": self.count(),
            "quarantined_now": moved,
            "quarantined_total": len(self.quarantined()),
            "duration_seconds": duration,
        }

    def segment_info(self) -> list[dict]:
        with self._lock:
            return [
                {
                    "name": seg.path.name,
                    "id": seg.seg_id,
                    "gen": seg.gen,
                    "bytes": seg.size,
                    "record_bytes": seg.total_record_bytes,
                    "dead_bytes": seg.dead_bytes,
                    "active": seg is self._active,
                }
                for seg in sorted(self._segments.values(), key=lambda s: s.key)
            ]

    def publish_metrics(self, registry) -> None:
        self.stats.publish(registry)
        self._segment_gauge = registry.gauge(
            "myproxy_storage_segments",
            "Segment files currently backing the credential store.",
        )
        self._update_gauges()

    def _update_gauges(self) -> None:
        if self._segment_gauge is not None:
            self._segment_gauge.set(len(self._segments))

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._compactor_stop.set()
        if self._compactor is not None:
            self._compactor.join(timeout=5.0)
        with self._lock:
            if self._active_file is not None:
                # A clean close leaves the active segment a sidecar too,
                # so the next open's recovery scans nothing at all.
                if self._active is not None:
                    self._write_sidecar(self._active.path, self._active.size,
                                        self._active_records, self._active_crc)
                self._active_file.close()
                self._active_file = None
            for seg in self._segments.values():
                seg.close()


def is_unmigrated_spool(root: str | os.PathLike) -> bool:
    """Whether ``root`` still holds the legacy one-file-per-credential spool.

    ``*.json`` entry files and no ``storage.backend`` marker.  Segment
    files beside them are the debris of a migration that crashed before
    its marker: the spool is still the truth then.
    """
    root = Path(root)
    return not (root / BACKEND_MARKER).exists() and any(root.glob("*.json"))


def open_repository(path: str | os.PathLike, *, storage=None) -> SegmentRepository:
    """Open the credential store at ``path``; what the CLI tools call.

    ``storage`` may be a :class:`~repro.core.config.StorageConfig`, whose
    fields are the engine's tuning knobs by name.  An unmigrated legacy spool is
    refused before anything is created or modified: opening it as
    segments would serve an empty store beside the operator's credentials.
    """
    if is_unmigrated_spool(path):
        raise RepositoryError(
            f"{path} holds an unmigrated credential spool: run "
            f"'myproxy-admin --storage-dir {path} migrate' once, then start again"
        )
    knobs = dataclasses.asdict(storage) if storage is not None else {}
    return SegmentRepository(path, **knobs)


def _read_spool(root: Path, store: SegmentRepository) -> list[RepositoryEntry]:
    """Read-only import of a legacy spool's live entries.

    Each ``*.json`` file is one CRC frame (or, older still, bare JSON)
    holding an entry.  The spool redo-logged mutations in ``journal.wal``
    before touching a file, so an op with no commit marker wins over the
    file it names: a pending put supplies the entry, a pending delete
    drops it (and explains the zeroized husk it may have left).  Anything
    else unreadable moves to ``store``'s quarantine — never skipped.
    """
    pending: dict[tuple[str, str], str | None] = {}
    journal = root / SPOOL_JOURNAL
    if journal.exists():
        data = journal.read_bytes()
        # A torn tail is an append that was never acknowledged.
        payloads, clean_len, status = scan_frames(data)
        if status == "corrupt":
            store.stats.inc("corruption_detected")
            store._write_quarantine(
                f"{SPOOL_JOURNAL}.corrupt", data[clean_len:], "failed CRC scan"
            )
        ops: dict[int, dict] = {}
        for payload in payloads:
            try:
                doc = json.loads(payload)
                if doc["op"] == "commit":
                    ops.pop(int(doc["txid"]), None)
                else:
                    ops[int(doc["txid"])] = doc
            except (ValueError, KeyError, TypeError):
                store.stats.inc("corruption_detected")  # good CRC, bad writer
        for doc in ops.values():  # log order; the latest op on a key wins
            key = (str(doc.get("username", "")), str(doc.get("cred_name", "")))
            pending[key] = doc.get("document")

    entries: dict[tuple[str, str], RepositoryEntry] = {}
    for path in sorted(root.glob("*.json")):
        try:
            if decode_key_token(path.name.removesuffix(".json")) in pending:
                continue
        except ValueError:
            pass  # not a token name; the content still says whose it is
        try:
            raw = path.read_bytes()
            payload = decode_single_frame(raw) if is_framed(raw) else raw
            entry = RepositoryEntry.from_json(payload.decode("utf-8"))
        except (RepositoryError, OSError, ValueError) as exc:
            store._quarantine_file(path, str(exc))
            continue
        entries[entry.key] = entry
    for key, document in pending.items():
        if document is not None:
            entries[key] = RepositoryEntry.from_json(document)
    return list(entries.values())


def migrate_spool_to_segments(
    root: str | os.PathLike,
    *,
    keep_spool: bool = False,
    segment_max_bytes: int = 32 * 1024 * 1024,
) -> dict:
    """In-place legacy spool → segments conversion (``myproxy-admin migrate``).

    Imports the spool (pending journal ops honoured, corrupt files
    quarantined), bulk-loads every entry into segments in the same
    directory, verifies each one reads back identically, and only then
    writes the ``storage.backend`` marker — the commit point.  Unless
    ``keep_spool``, the old per-credential files and their journal are
    zeroized and removed afterwards; a crash before the marker leaves the
    spool untouched (rerun ``migrate``), after it a valid segment store.

    A directory without an unmigrated spool is a no-op (``migrated=False``).
    """
    root = Path(root)
    if not is_unmigrated_spool(root):
        return {"migrated": False, "entries": 0,
                "reason": "no unmigrated spool files here"}

    # Debris of a migration that crashed before its marker: the spool is
    # still authoritative, so the half-written segments restart from zero.
    for leftover in root.glob(f"seg-*{SEGMENT_SUFFIX}*"):
        leftover.unlink(missing_ok=True)
    (root / INGEST_MARKER).unlink(missing_ok=True)

    segments = SegmentRepository(root, segment_max_bytes=segment_max_bytes)
    try:
        entries = _read_spool(root, segments)
        loaded = segments.bulk_load(entries)
        for entry in entries:
            copy = segments.get(entry.username, entry.cred_name)
            if copy.to_json() != entry.to_json():
                raise RepositoryError(
                    f"migration verify failed for "
                    f"{entry.username}/{entry.cred_name}"
                )
        write_backend_marker(root)
        if not keep_spool:
            for path in (*root.glob("*.json"), *root.glob("*.json.tmp"),
                         root / SPOOL_JOURNAL):
                segments._zeroize_unlink(path)
    finally:
        segments.close()
    return {"migrated": True, "entries": loaded, "spool_removed": not keep_spool}


def write_backend_marker(root: str | os.PathLike) -> None:
    """Atomically (and durably) mark ``root`` as a migrated segment store."""
    root = Path(root)
    tmp = root / (BACKEND_MARKER + ".tmp")
    tmp.write_text("segments\n", "utf-8")
    _fsync_path(tmp)
    os.replace(tmp, root / BACKEND_MARKER)
    _fsync_path(root)
