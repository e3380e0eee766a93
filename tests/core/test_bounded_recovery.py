"""Opening the segment store in bounded memory (DESIGN.md "Recovery order").

Recovery reads each segment in ``CHUNK_BYTES`` pieces: with a sidecar it
only checksums them, without one it feeds them to the one
:class:`~repro.core.framing.FrameDecoder`.  These tests hold the open of
a >= 30 MiB single-segment store, in every state recovery meets, to its
retained index plus 4 MiB of traced allocations, and check it finds
exactly what the whole-buffer scan recovery used before finds: the same
index, the same quarantine, the same truncation.  A Hypothesis property
checks the decoder against that scan for any chunking of any damage.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.replog import OP_DELETE, ReplicationLog
from repro.core import framing
from repro.core.framing import FrameDecoder, Quarantine, encode_frame
from repro.core.repository import StorageStats, decode_key_token, encode_key_token
from repro.core.segments import (
    SegmentRepository,
    _segment_header,
    _sidecar_path,
    put_record,
    tombstone_record,
)
from repro.util.errors import RepositoryError

MIB = 1 << 20
SEGMENT = "seg-00000001.mps"
HUGE_HEADER = b"%MPF1 1073741824 0\n"

# ---------------------------------------------------------------------------
# The whole-buffer scan, as recovery ran it before it read in chunks: the
# oracle every decoder path is held to.
# ---------------------------------------------------------------------------


def _ref_iter(data: bytes, pos: int = 0):
    size = len(data)
    while pos < size:
        nl = data.find(b"\n", pos, pos + 64)
        if nl == -1:
            return
        parts = data[pos:nl].split(b" ")
        if len(parts) != 3 or parts[0] != b"%MPF1":
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


def _ref_scan(data: bytes) -> tuple[list[bytes], int, str]:
    payloads: list[bytes] = []
    pos = 0
    size = len(data)
    while pos < size:
        nl = data.find(b"\n", pos, pos + 64)
        if nl == -1:
            incomplete = size - pos < 64 and data.find(b"\n", pos) == -1
            return payloads, pos, "torn" if incomplete else "corrupt"
        parts = data[pos:nl].split(b" ")
        if len(parts) != 3 or parts[0] != b"%MPF1":
            return payloads, pos, "corrupt"
        try:
            length, crc = int(parts[1]), int(parts[2])
        except ValueError:
            return payloads, pos, "corrupt"
        if length < 0:
            return payloads, pos, "corrupt"
        start = nl + 1
        end = start + length + 1
        if end > size:
            return payloads, pos, "torn"
        payload = data[start:start + length]
        if data[end - 1] != 0x0A or zlib.crc32(payload) != crc:
            return payloads, pos, "corrupt"
        payloads.append(payload)
        pos = end
    return payloads, pos, "clean"


def _ref_next(data: bytes, pos: int) -> int:
    while 0 <= pos < len(data):
        pos = data.find(b"%MPF1", pos)
        if pos == -1:
            return -1
        if next(_ref_iter(data, pos), None) is not None:
            return pos
        pos += 1
    return -1


def _ref_recover(data: bytes, pos: int):
    """``(frames, gaps, status, clean_end)`` of recovery's resynchronising
    scan from ``pos``; gaps are ``(start, end)`` corrupt regions.  Bytes
    that look torn are a torn tail only when no intact frame follows them:
    a header whose length was damaged mid-stream is a corrupt region, and
    the records behind it are kept."""
    frames, gaps = [], []
    status = "clean"
    while pos < len(data):
        for frame in _ref_iter(data, pos):
            frames.append(frame)
            pos = frame[2]
        if pos >= len(data):
            break
        nxt = _ref_next(data, pos + 1)
        if nxt == -1 and _ref_scan(data[pos:])[2] == "torn":
            status = "torn"
            break
        gaps.append((pos, nxt if nxt != -1 else len(data)))
        if nxt == -1:
            status = "corrupt"
            break
        pos = nxt
    return frames, gaps, status, pos


# ---------------------------------------------------------------------------
# The decoder against the oracle
# ---------------------------------------------------------------------------


def _chunked(data: bytes, sizes: list[int]):
    pos, i = 0, 0
    while pos < len(data):
        step = sizes[i % len(sizes)]
        yield data[pos:pos + step]
        pos += step
        i += 1


_payloads = st.lists(
    st.one_of(st.binary(max_size=40), st.binary(max_size=30).map(encode_frame)),
    max_size=8,
)


@st.composite
def _streams(draw):
    data = bytearray(b"".join(encode_frame(p) for p in draw(_payloads)))
    for at, value in draw(st.lists(st.tuples(st.integers(0, 10_000),
                                             st.integers(0, 255)), max_size=3)):
        if data:
            data[at % len(data)] = value
    if data and draw(st.booleans()):
        del data[draw(st.integers(0, len(data) - 1)):]
    if draw(st.booleans()):
        data += draw(st.sampled_from([b"%MPF1 9", b"junk", b"%MPF1 3 1\nab\n"]))
    return bytes(data)


_chunk_sizes = st.lists(st.integers(1, 200), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(_streams(), _chunk_sizes, st.booleans())
def test_decoder_matches_whole_buffer_scan_for_any_chunking(data, sizes, sized):
    expected_frames = list(_ref_iter(data))
    payloads, clean_end, status = _ref_scan(data)

    decoder = FrameDecoder(size=len(data) if sized else None)
    assert list(decoder.decode(_chunked(data, sizes))) == expected_frames
    assert (decoder.clean_end, decoder.status) == (clean_end, status)

    # The whole buffer as one chunk.
    whole = FrameDecoder(size=len(data))
    assert [payload for payload, _, _ in whole.decode((data,))] == payloads
    assert (whole.clean_end, whole.status) == (clean_end, status)


@settings(max_examples=300, deadline=None)
@given(_streams(), _chunk_sizes, st.booleans())
def test_resync_decoder_matches_recovery_scan_for_any_chunking(data, sizes, sized):
    frames, gaps, status, clean_end = _ref_recover(data, 0)
    decoder = FrameDecoder(size=len(data) if sized else None, resync=True)
    events = list(decoder.decode(_chunked(data, sizes)))
    assert [e for e in events if e[0] is not None] == frames
    assert [(s, e) for p, s, e in events if p is None] == gaps
    assert (decoder.status, decoder.clean_end) == (status, clean_end)


@pytest.mark.parametrize("sized", [True, False])
@pytest.mark.parametrize("step", [1, 7, 64, 10_000])
def test_a_damaged_length_mid_stream_is_a_region_not_a_torn_tail(sized, step):
    before, after = encode_frame(b"kept before"), encode_frame(b"kept after")
    data = before + HUGE_HEADER + after + encode_frame(b"and the last")
    decoder = FrameDecoder(size=len(data) if sized else None, resync=True)
    events = list(decoder.decode(_chunked(data, [step])))
    assert [p for p, _, _ in events] == [
        b"kept before", None, b"kept after", b"and the last"]
    assert events[1][1:] == (len(before), len(before) + len(HUGE_HEADER))
    assert (decoder.status, decoder.clean_end) == ("clean", len(data))

    # With nothing intact behind it, the same header is a torn tail.
    stream = before + HUGE_HEADER + b"partial"
    tail = FrameDecoder(size=len(stream) if sized else None, resync=True)
    events = list(tail.decode(_chunked(stream, [step])))
    assert [p for p, _, _ in events] == [b"kept before"]
    assert (tail.status, tail.clean_end) == ("torn", len(before))


# ---------------------------------------------------------------------------
# A >= 30 MiB store, opened in five states
# ---------------------------------------------------------------------------


def _document(i: int) -> str:
    # ~5 KB, like an entry with its encrypted key and certificate chain.
    body = (b"%08d" % i) * 600
    return json.dumps({"n": i, "blob": body.hex()[:5000]})


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One plain segment of >= 30 MiB: puts, overwrites and tombstones."""
    root = tmp_path_factory.mktemp("pristine")
    path = root / SEGMENT
    with open(path, "wb") as fh:
        fh.write(_segment_header(1, 0, None))
        i = 0
        while fh.tell() < 30 * MIB + 4096:
            fh.write(encode_frame(put_record(f"user{i:05d}", "default", _document(i))))
            if i % 7 == 3:
                fh.write(encode_frame(put_record(f"user{i - 3:05d}", "default",
                                                 _document(-i))))
            if i % 11 == 5:
                fh.write(encode_frame(tombstone_record(f"user{i - 5:05d}", "default")))
            i += 1
    return root


def _frame_boundary_near(data: bytes, at: int) -> int:
    return data.index(b"\n%MPF1 ", at) + 1


def _damage(state: str, root):
    """Put the store into ``state``; return its segment bytes as found."""
    path = root / SEGMENT
    data = path.read_bytes()
    mid = len(data) // 2
    if state == "torn_tail":
        data += encode_frame(put_record("late", "default", _document(1)))[:-100]
    elif state == "corrupt_middle":
        data = data[:mid] + b"\0" * 20_000 + data[mid + 20_000:]
    elif state == "huge_length_header":
        cut = _frame_boundary_near(data, mid)
        data = data[:cut] + HUGE_HEADER + data[cut:]
    path.write_bytes(data)
    if state == "with_sidecar":
        SegmentRepository(root).close()  # a clean close writes the sidecar
        assert _sidecar_path(path).exists()
    return path.read_bytes()


def _expected(data: bytes):
    """Index, quarantine and segment size the whole-buffer scan yields."""
    pos = data.index(b"\n") + 1
    frames, gaps, status, clean_end = _ref_recover(data, pos)
    index: dict[tuple[str, str], tuple[int, int]] = {}
    for payload, start, end in frames:
        kind, token = payload[:1], payload[2:].partition(b"\n")[0]
        key = decode_key_token(token.decode("ascii"))
        if kind == b"P":
            index[key] = (start, end - start)
        else:
            index.pop(key, None)
    quarantine = {}
    for start, end in gaps:
        region = data[start:end]
        match = re.search(rb"[PD] ([A-Za-z0-9_=-]+)", region)
        name = f"{SEGMENT}+{start}.corrupt"
        if match:
            name = f"{encode_key_token(*decode_key_token(match.group(1).decode()))}.json"
        quarantine[name] = region
    size = len(data) if status == "clean" else clean_end
    return index, quarantine, size


def _quarantine_contents(root) -> dict[str, bytes]:
    qdir = root / "quarantine"
    if not qdir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in qdir.iterdir()
            if not p.name.endswith(".reason")}


@pytest.mark.parametrize("state", [
    "with_sidecar", "without_sidecar", "torn_tail", "corrupt_middle",
    "huge_length_header",
])
def test_open_is_bounded_and_matches_the_whole_buffer_scan(pristine, tmp_path, state):
    root = tmp_path / "store"
    shutil.copytree(pristine, root)
    data = _damage(state, root)
    assert len(data) >= 30 * MIB
    index, quarantine, size = _expected(data)
    damage = {"corrupt_middle": "quarantined", "torn_tail": "truncated",
              "huge_length_header": "quarantined"}.get(state)
    assert bool(quarantine) == (damage == "quarantined")
    assert (size < len(data)) == (damage == "truncated")
    del data

    tracemalloc.start()
    try:
        repo = SegmentRepository(root)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    try:
        assert peak <= retained + 4 * MIB, (peak / MIB, retained / MIB)
        got = {key: (slot[1], slot[2]) for key, slot in repo._index.items()}
        assert got == index
        assert _quarantine_contents(root) == quarantine
        assert os.path.getsize(root / SEGMENT) == size
        if state != "with_sidecar":
            assert repo.stats.get("quarantined") == len(quarantine)
    finally:
        repo.close()


# ---------------------------------------------------------------------------
# Snapshot ingest stops at the first corrupt frame
# ---------------------------------------------------------------------------


def test_ingest_fails_at_first_corrupt_frame_without_reading_on(tmp_path):
    frames = [encode_frame(put_record(f"u{i:05d}", "default", _document(i)))
              for i in range(3000)]
    body = b"".join(frames)
    header = encode_frame(b"H " + json.dumps({"snapshot": 1, "entries": 3000}).encode())
    trailer = encode_frame(b"T " + json.dumps(
        {"end": True, "entries": 3000, "crc": zlib.crc32(body)}).encode())
    stream = bytearray(header + body + trailer)
    chunk = 64 * 1024
    # Flip a payload byte of a frame lying wholly inside chunk 2.
    start = len(header)
    for frame in frames:
        if start >= 2 * chunk + 100 and start + len(frame) < 3 * chunk:
            break
        start += len(frame)
    stream[start + len(frame) // 2] ^= 0x01
    pieces = [bytes(stream[i:i + chunk]) for i in range(0, len(stream), chunk)]
    assert len(pieces) > 200
    consumed = []

    def chunks():
        for n, piece in enumerate(pieces):
            consumed.append(n)
            yield piece

    target = SegmentRepository(tmp_path / "replica")
    try:
        with pytest.raises(RepositoryError, match=f"corrupt at byte {start}"):
            target.ingest_snapshot(chunks())
    finally:
        target.close()
    assert consumed == [0, 1, 2]


def test_quarantined_region_is_named_alike_however_it_arrives(tmp_path):
    # A region copied a chunk at a time must get the credential's name
    # even when a chunk boundary splits the record header inside it.
    token = encode_key_token("alice", "default").encode()
    region = b"\0rot\0 P " + token + b"\n{\"owner\": \"P x\"}"
    quarantine = Quarantine(tmp_path / "quarantine", StorageStats())
    splits = [(region[:cut], region[cut:]) for cut in range(1, len(region))]
    splits.append([region[i:i + 1] for i in range(len(region))])
    for n, pieces in enumerate(splits):
        quarantine.region(SEGMENT, n, pieces)
    items = quarantine.entries()
    assert len(items) == len(splits)
    assert {(item.username, item.cred_name) for item in items} == {("alice", "default")}
    assert {item.path.read_bytes() for item in items} == {region}


@pytest.mark.parametrize("damage", ["none", "torn_tail", "corrupt_third"])
def test_replication_log_reopens_as_the_whole_buffer_scan_did(tmp_path, monkeypatch, damage):
    # A tiny chunk, so every record spans several reads.
    monkeypatch.setattr(framing, "CHUNK_BYTES", 64)
    path = tmp_path / "replog"
    log = ReplicationLog("n0", b"s" * 32, path=path)
    for i in range(5):
        log.append(OP_DELETE, f"u{i}", "default", None)
    log.close()
    data = bytearray(path.read_bytes())
    ends = [end for _, _, end in _ref_iter(bytes(data), data.index(b"\n") + 1)]
    if damage == "torn_tail":
        data += encode_frame(b"x" * 100)[:50]
    elif damage == "corrupt_third":
        data[ends[2] - 5] ^= 0x01  # a payload byte of the third record
    path.write_bytes(bytes(data))

    log = ReplicationLog("n0", b"s" * 32, path=path)
    try:
        # A corrupt record costs only itself: it is quarantined, stays in
        # the file, and the records behind it are kept.
        kept = [1, 2, 4, 5] if damage == "corrupt_third" else [1, 2, 3, 4, 5]
        assert [op.seq for op in log.since(0)] == kept
        assert path.stat().st_size == ends[4]
        assert log.stats.get("torn_truncated") == (damage == "torn_tail")
        assert log.stats.get("quarantined") == (damage == "corrupt_third")
    finally:
        log.close()
