"""The fault-injection harness itself: plans, determinism, the registry."""

from __future__ import annotations

import pytest

from repro import faults
from repro.cluster import replog
from repro.core import framing, segments
from repro.util.errors import TransportError


class TestFaultPlan:
    def test_parse_env_format(self):
        plan = faults.FaultPlan.parse(
            "kill@repo.segment.append.synced,eio@repo.segment.write:2", seed=7
        )
        assert plan.seed == 7
        assert [(r.kind, r.site, r.at) for r in plan.rules] == [
            ("kill", "repo.segment.append.synced", 1),
            ("eio", "repo.segment.write", 2),
        ]

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            faults.FaultPlan.parse("kill")  # no @site
        with pytest.raises(ValueError):
            faults.FaultPlan.parse("frobnicate@some.site")  # unknown kind

    def test_site_globs_and_hit_windows(self):
        plan = faults.FaultPlan([faults.FaultRule("eio", "repo.segment.*", at=2)])
        assert plan.match("repo.segment.write", 1) is None
        assert plan.match("repo.segment.write", 2) is not None
        assert plan.match("repo.segment.write", 3) is None  # times=1 window
        assert plan.match("replog.write", 2) is None

    def test_fire_is_noop_when_disarmed(self, injector):
        injector.fire("repo.segment.append.pre")  # must not raise

    def test_kill_rule_raises_kill_point(self, injector):
        injector.arm(faults.FaultPlan([faults.FaultRule("kill", "site.x")]))
        with pytest.raises(faults.KillPoint) as exc:
            injector.fire("site.x")
        assert exc.value.site == "site.x"

    def test_kill_point_escapes_except_exception(self, injector):
        injector.arm(faults.FaultPlan([faults.FaultRule("kill", "site.x")]))
        with pytest.raises(faults.KillPoint):
            try:
                injector.fire("site.x")
            except Exception:  # noqa: BLE001 - the point: this must NOT catch
                pytest.fail("a dead process does not run except blocks")

    def test_partition_raises_transport_error(self, injector):
        injector.arm(faults.FaultPlan([faults.FaultRule("partition", "net.*")]))
        with pytest.raises(TransportError):
            injector.fire("net.dial")

    def test_rearm_resets_hit_counters(self, injector):
        plan = faults.FaultPlan([faults.FaultRule("eio", "s", at=1)])
        injector.arm(plan)
        with pytest.raises(faults.InjectedFault):
            injector.fire("s")
        injector.fire("s")  # at=1 consumed
        injector.arm(plan)  # counters reset
        with pytest.raises(faults.InjectedFault):
            injector.fire("s")

    def test_no_faults_refuses_to_arm(self):
        with pytest.raises(RuntimeError):
            faults.NO_FAULTS.arm(faults.FaultPlan([]))


class TestTornWriteDeterminism:
    def _torn_bytes(self, tmp_path, seed: int) -> bytes:
        inj = faults.FaultInjector(
            faults.FaultPlan([faults.FaultRule("torn", "f.write")], seed=seed)
        )
        path = tmp_path / f"torn-{seed}-{len(list(tmp_path.iterdir()))}"
        shim = faults.ShimFile(path, inj, write_site="f.write", fsync_site="f.fsync")
        try:
            with pytest.raises(faults.KillPoint):
                shim.write(b"0123456789abcdef")
        finally:
            shim.close()
        return path.read_bytes()

    def test_same_seed_same_tear(self, tmp_path):
        assert self._torn_bytes(tmp_path, 42) == self._torn_bytes(tmp_path, 42)

    def test_prefix_of_the_payload(self, tmp_path):
        torn = self._torn_bytes(tmp_path, 1)
        assert b"0123456789abcdef".startswith(torn)
        assert len(torn) < 16


class TestKillPointRegistry:
    def test_one_write_path_one_set_of_sites(self):
        # One durable engine: every repository kill site is a segment
        # site, and the sweeps in this suite enumerate exactly these.
        repo_sites = faults.kill_points("repo.")
        replog_sites = faults.kill_points("replog.")
        assert repo_sites == faults.kill_points("repo.segment.")
        assert len(repo_sites) == 6
        assert len(replog_sites) == 6
        assert segments.SITE_SEG_APPEND_SYNCED in repo_sites
        assert segments.SITE_SEG_COMPACT_PRE_RENAME in repo_sites
        assert replog.SITE_SHIP_PRE in replog_sites
        assert replog.SITE_APPLY_PRE in replog_sites


def _decode(data: bytes) -> tuple[list[bytes], int, str]:
    """``(payloads, clean_end, status)`` of a strict decode of ``data``."""
    decoder = framing.FrameDecoder(size=len(data))
    payloads = [payload for payload, _, _ in decoder.decode((data,))]
    return payloads, decoder.clean_end, decoder.status


class TestFrameCodec:
    def test_roundtrip(self):
        data = framing.encode_frame(b"hello") + framing.encode_frame(b"world")
        payloads, clean, status = _decode(data)
        assert payloads == [b"hello", b"world"]
        assert clean == len(data)
        assert status == "clean"

    def test_frames_stay_utf8_text_for_text_payloads(self):
        # Segment files must stay inspectable as text: a frame around a
        # text payload is itself valid utf-8.
        framed = framing.encode_frame(b'{"user": "alice"}')
        assert framed.decode("utf-8").startswith("%MPF1 ")

    def test_torn_tail_detected(self):
        data = framing.encode_frame(b"intact") + b"%MPF1 100 123\npart"
        payloads, clean, status = _decode(data)
        assert payloads == [b"intact"]
        assert status == "torn"
        assert clean == len(framing.encode_frame(b"intact"))

    def test_bit_flip_detected_as_corrupt(self):
        good = bytearray(framing.encode_frame(b"payload-bytes"))
        good[-3] ^= 0x01  # flip one payload bit
        payloads, clean, status = _decode(bytes(good))
        assert payloads == []
        assert clean == 0
        assert status == "corrupt"

    def test_single_frame_decoder_rejects_trailing_garbage(self):
        framed = framing.encode_frame(b"x") + b"junk-after-frame" * 4
        with pytest.raises(framing.FramingError):
            framing.decode_single_frame(framed)
