"""Tests for the concurrent verification gateway.

The load-bearing property: for the same request frames, the gateway —
with concurrent requests and the sound-field LRU cache in play —
produces decisions *bitwise equal* to the sequential
``VerificationServer``.
"""

import dataclasses
import json
import struct
import threading
import zlib

import numpy as np
import pytest

from repro.core.pipeline import DefenseSystem
from repro.core.soundfield import SoundFieldVerifier
from repro.errors import ConfigurationError, ProtocolError
from repro.obs.exporters import AuditJsonlExporter
from repro.server import (
    KIND_REQUEST,
    Gateway,
    GatewayConfig,
    VerificationServer,
    decode_decision,
    encode_request,
)
from repro.server.protocol import _HEADER, _MAGIC, _VERSION


@pytest.fixture(scope="module")
def request_frames(small_world, world_genuine_capture, world_replay_capture):
    """A 10-request burst: mixed genuine/replay, mixed claimed speakers."""
    u0, u1 = sorted(small_world.users)
    frames = []
    for i in range(10):
        capture = world_genuine_capture if i % 3 else world_replay_capture
        claimed = u0 if i % 4 else u1
        frames.append(encode_request(capture, claimed, request_id=f"req-{i}"))
    return frames


@pytest.fixture(scope="module")
def sequential_decisions(small_world, request_frames):
    """Ground truth: the same frames through the one-at-a-time server."""
    server = VerificationServer(small_world.system)
    try:
        return [decode_decision(server.handle(f)) for f in request_frames]
    finally:
        server.close()


class TestGatewayEquivalence:
    def test_concurrent_burst_bitwise_equals_sequential(
        self, small_world, request_frames, sequential_decisions
    ):
        """≥8 concurrent requests: identical decisions, scores bit-for-bit.

        Ten request workers serve the burst at once and the sound-field
        models come from the LRU cache, yet every score must round-trip
        equal to the sequential server's.
        """
        config = GatewayConfig(request_workers=10)
        with Gateway(small_world.system, config) as gateway:
            decision_frames = gateway.handle_many(request_frames)
            metrics = gateway.metrics_summary()
        decisions = [decode_decision(f) for f in decision_frames]
        assert len(decisions) == 10
        for got, expected in zip(decisions, sequential_decisions):
            assert got == expected  # accepted, request_id, every score bit
        assert metrics["counters"]["requests_completed"] == 10

    def test_no_cross_request_payload_bleed(
        self, small_world, request_frames, sequential_decisions
    ):
        """N threads × submit: each response matches its own request."""
        expected_by_id = {d["request_id"]: d for d in sequential_decisions}
        config = GatewayConfig(request_workers=6)
        results = {}
        errors = []
        with Gateway(small_world.system, config) as gateway:

            def one(frame):
                try:
                    decision = decode_decision(gateway.handle(frame))
                    results[decision["request_id"]] = decision
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=one, args=(f,)) for f in request_frames
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert sorted(results) == sorted(expected_by_id)
        for request_id, decision in results.items():
            assert decision == expected_by_id[request_id]

    def test_identity_batch_scoring_bitwise_equal(
        self, small_world, world_user, world_genuine_capture, world_replay_capture
    ):
        """verify_batch == verify, score for score, on mixed captures."""
        identity = small_world.system.identity
        captures = [world_genuine_capture, world_replay_capture] * 3
        batched = identity.verify_batch(captures, world_user)
        sequential = [identity.verify(c, world_user) for c in captures]
        assert [b.score for b in batched] == [s.score for s in sequential]
        assert [b.passed for b in batched] == [s.passed for s in sequential]


class TestCrossSpeakerBatching:
    """The cross-speaker scoring kernels stay bitwise-equal to per-claim
    scoring (no serving mode calls them; they remain library API)."""

    def test_llr_score_multi_bitwise_equals_sequential(self, small_world):
        """llr_score_multi == llr_score per utterance, mixed claims."""
        from repro.asv.scoring import llr_score, llr_score_multi

        verifier = small_world.system.identity.verifier
        u0, u1 = sorted(small_world.users)
        rng = np.random.default_rng(11)
        feats = [
            rng.standard_normal((n, verifier.ubm.gmm.means_.shape[1]))
            for n in (40, 25, 60, 33)
        ]
        models = [verifier._speaker_models[u] for u in (u0, u1, u0, u1)]
        fused = llr_score_multi(models, verifier.ubm.gmm, feats)
        sequential = [
            llr_score(m, verifier.ubm.gmm, f) for m, f in zip(models, feats)
        ]
        assert fused == sequential  # bitwise, not approx
        assert llr_score_multi([], verifier.ubm.gmm, []) == []
        with pytest.raises(ValueError):
            llr_score_multi(models[:2], verifier.ubm.gmm, feats[:3])

    def test_verify_multi_bitwise_equals_sequential(
        self, small_world, world_genuine_capture, world_replay_capture
    ):
        """IdentityVerifier.verify_multi == verify, mixed claims/captures."""
        identity = small_world.system.identity
        u0, u1 = sorted(small_world.users)
        captures = [world_genuine_capture, world_replay_capture] * 2
        claims = [u0, u1, u1, u0]
        fused = identity.verify_multi(captures, claims)
        sequential = [
            identity.verify(c, claimed) for c, claimed in zip(captures, claims)
        ]
        assert [f.score for f in fused] == [s.score for s in sequential]
        assert [f.passed for f in fused] == [s.passed for s in sequential]
        assert [f.detail for f in fused] == [s.detail for s in sequential]

    def test_verify_multi_unknown_claim_raises(
        self, small_world, world_genuine_capture, world_user
    ):
        identity = small_world.system.identity
        with pytest.raises(ConfigurationError):
            identity.verify_multi(
                [world_genuine_capture, world_genuine_capture],
                [world_user, "nobody"],
            )


class _PoisonedIdentity:
    """Identity scorer that fails on captures tagged ``poison``."""

    def __init__(self, identity):
        self._identity = identity

    def __getattr__(self, name):
        return getattr(self._identity, name)

    def verify(self, capture, claimed):
        if capture.metadata.get("poison"):
            raise ConfigurationError("poisoned capture")
        return self._identity.verify(capture, claimed)


class _PoisonedSystem:
    """A trained system whose identity stage is :class:`_PoisonedIdentity`."""

    def __init__(self, system):
        self._system = system
        self.identity = _PoisonedIdentity(system.identity)

    def __getattr__(self, name):
        return getattr(self._system, name)


class TestIdentityIsolation:
    def test_identity_error_fails_only_its_request(
        self, small_world, world_genuine_capture, world_user
    ):
        """Two same-speaker requests in flight, one poisoned: only the
        poisoned future raises, and its peer scores as if it were alone."""
        config = GatewayConfig(request_workers=2)
        good_frame = encode_request(
            world_genuine_capture, world_user, request_id="good"
        )
        poisoned = dataclasses.replace(
            world_genuine_capture,
            metadata={**world_genuine_capture.metadata, "poison": True},
        )
        bad_frame = encode_request(poisoned, world_user, request_id="bad")
        with Gateway(_PoisonedSystem(small_world.system), config) as gateway:
            good = gateway.submit(good_frame)
            bad = gateway.submit(bad_frame)
            with pytest.raises(ConfigurationError):
                bad.result(timeout=60.0)
            decision = decode_decision(good.result(timeout=60.0))
        assert gateway.metrics.counter("identity_errors") == 1
        server = VerificationServer(small_world.system)
        try:
            expected = decode_decision(server.handle(good_frame))
        finally:
            server.close()
        assert decision == expected


class TestSoundFieldCache:
    def test_rehydrated_model_scores_bitwise_equal(
        self, small_world, world_user, world_genuine_capture
    ):
        state = small_world.system.export_soundfield_state(world_user)
        rehydrated = SoundFieldVerifier.from_state(small_world.system.config, state)
        original = small_world.system.soundfield_for(world_user)
        assert rehydrated.score(world_genuine_capture) == original.score(
            world_genuine_capture
        )

    def test_cache_counters_match_scripted_sequence(self, small_world):
        u0, u1 = sorted(small_world.users)
        system = DefenseSystem(
            config=small_world.system.config,
            enabled_components=("soundfield",),
            soundfield_cache_capacity=1,
        )
        system.import_soundfield_state(
            u0, small_world.system.export_soundfield_state(u0)
        )
        system.import_soundfield_state(
            u1, small_world.system.export_soundfield_state(u1)
        )
        stats = system.soundfield_cache_stats
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)
        system.soundfield_for(u0)  # cold: miss
        system.soundfield_for(u0)  # resident: hit
        system.soundfield_for(u1)  # miss, evicts u0 (capacity 1)
        system.soundfield_for(u0)  # miss again, evicts u1
        system.soundfield_for(u0)  # hit
        assert (stats.hits, stats.misses, stats.evictions) == (2, 3, 2)

    def test_unknown_user_still_rejected(self, small_world):
        with pytest.raises(ConfigurationError):
            small_world.system.soundfield_for("nobody")
        with pytest.raises(ConfigurationError):
            small_world.system.export_soundfield_state("nobody")

    def test_cache_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            DefenseSystem(soundfield_cache_capacity=0)


class TestGatewayLifecycle:
    def test_submit_after_close_rejected(self, small_world, request_frames):
        gateway = Gateway(small_world.system, GatewayConfig(request_workers=2))
        gateway.close()
        with pytest.raises(ConfigurationError):
            gateway.submit(request_frames[0])
        gateway.close()  # idempotent

    def test_malformed_frame_fails_only_its_future(
        self, small_world, request_frames, sequential_decisions
    ):
        config = GatewayConfig(request_workers=2)
        with Gateway(small_world.system, config) as gateway:
            bad = gateway.submit(b"RV garbage")
            good = gateway.submit(request_frames[0])
            with pytest.raises(ProtocolError):
                bad.result(timeout=30.0)
            decision = decode_decision(good.result(timeout=60.0))
        assert decision == sequential_decisions[0]
        assert gateway.metrics.counter("protocol_errors") == 1

    def test_malformed_bodies_never_kill_a_worker(
        self, small_world, request_frames, sequential_decisions
    ):
        """CRC-valid request frames with malformed bodies each fail their
        own future with ``ProtocolError``.  There are more of them than
        workers, so a body that escaped the decoder as any other exception
        would kill every worker and leave the valid request hanging."""
        bodies = [
            # zlib-compressed JSON with no arrays, the pre-binary encoding
            zlib.compress(json.dumps({"claimed_speaker": "x"}).encode()),
            zlib.compress(json.dumps([]).encode()),
            # a meta block that is a JSON list
            struct.pack("<L", 2) + b"[]",
        ]
        frames = [
            _HEADER.pack(
                _MAGIC, _VERSION, KIND_REQUEST, len(body), zlib.crc32(body)
            )
            + body
            for body in bodies
        ]
        config = GatewayConfig(request_workers=len(frames) - 1)
        with Gateway(small_world.system, config) as gateway:
            bad = [gateway.submit(frame) for frame in frames]
            good = gateway.submit(request_frames[0])
            for future in bad:
                with pytest.raises(ProtocolError):
                    future.result(timeout=10.0)
            decision = decode_decision(good.result(timeout=60.0))
        assert decision == sequential_decisions[0]
        assert gateway.metrics.counter("protocol_errors") == len(frames)

    def test_failing_sink_fails_only_its_request(
        self, small_world, request_frames, sequential_decisions, tmp_path
    ):
        """An audit log that cannot write fails that request's future; the
        single worker survives to serve the next request."""

        class _FullDisk(AuditJsonlExporter):
            def write(self, record):
                if record.request_id == "req-1":
                    raise OSError("no space left on device")
                super().write(record)

        config = GatewayConfig(request_workers=1)
        with _FullDisk(tmp_path / "audit.jsonl") as audit, Gateway(
            small_world.system, config, audit=audit
        ) as gateway:
            failed = gateway.submit(request_frames[1])
            served = gateway.submit(request_frames[0])
            with pytest.raises(OSError):
                failed.result(timeout=60.0)
            decision = decode_decision(served.result(timeout=60.0))
        assert decision == sequential_decisions[0]
        assert gateway.metrics.counter("internal_errors") == 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GatewayConfig(request_workers=0)
        with pytest.raises(ConfigurationError):
            GatewayConfig(max_queue=0)
        with pytest.raises(ConfigurationError):
            GatewayConfig(component_timeout_s=-1.0)


class TestGatewayMetrics:
    def test_stage_histograms_populated(self, small_world, request_frames):
        config = GatewayConfig(request_workers=4)
        with Gateway(small_world.system, config) as gateway:
            gateway.handle_many(request_frames[:4])
            summary = gateway.metrics_summary()
        hists = summary["histograms"]
        for stage in ("queue_s", "decode_s", "detection_s", "identity_s", "total_s"):
            assert hists[stage]["count"] == 4.0
            assert hists[stage]["p95"] >= hists[stage]["p50"] >= 0.0
        assert summary["counters"]["requests_completed"] == 4
        cache = summary["soundfield_cache"]
        assert cache["hits"] + cache["misses"] > 0


class TestGatewayCascade:
    """The cascade-mode gateway: same decisions, early exits on attacks."""

    def test_cascade_decisions_equal_sequential(
        self, small_world, request_frames, sequential_decisions
    ):
        config = GatewayConfig(request_workers=10, cascade=True)
        with Gateway(small_world.system, config) as gateway:
            frames = gateway.handle_many(request_frames)
            summary = gateway.metrics_summary()
        decisions = [decode_decision(f) for f in frames]
        for got, expected in zip(decisions, sequential_decisions):
            assert got["accepted"] == expected["accepted"]
            assert got["request_id"] == expected["request_id"]
            # Every stage the cascade did run scored bitwise equal.
            for name, comp in got["components"].items():
                assert comp == expected["components"][name], name
        counters = summary["counters"]
        assert counters["requests_completed"] == len(request_frames)
        # The replay frames are confidently rejected by the cheap
        # magnetometer gate, so the burst must record early exits.
        assert counters["cascade_early_exits"] >= 1

    def test_cascade_skips_only_rejected_requests(
        self, small_world, request_frames, sequential_decisions
    ):
        config = GatewayConfig(request_workers=4, cascade=True)
        with Gateway(small_world.system, config) as gateway:
            frames = gateway.handle_many(request_frames)
        for frame, expected in zip(frames, sequential_decisions):
            decision = decode_decision(frame)
            ran = set(decision["components"])
            if ran != set(expected["components"]):
                # A stage was skipped: only allowed on rejections.
                assert not decision["accepted"]

    def test_cascade_stage_report(self, small_world, request_frames):
        config = GatewayConfig(request_workers=4, cascade=True)
        with Gateway(small_world.system, config) as gateway:
            gateway.handle_many(request_frames)
            summary = gateway.metrics_summary()
        stages = summary["stages"]
        # The cheap magnetometer gate runs on every request.
        assert stages["magnetic"]["runs"] == len(request_frames)
        assert stages["magnetic"]["skipped"] == 0
        for name, row in stages.items():
            assert 0.0 <= row["skip_rate"] <= 1.0, name
            assert row["p95_s"] >= row["p50_s"] >= 0.0, name

    def test_strict_mode_summary_has_no_stage_section(
        self, small_world, request_frames
    ):
        config = GatewayConfig(request_workers=2)
        with Gateway(small_world.system, config) as gateway:
            gateway.handle_many(request_frames[:2])
            summary = gateway.metrics_summary()
        assert "stages" not in summary
