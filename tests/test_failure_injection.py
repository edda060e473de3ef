"""Failure injection: degraded captures, degenerate inputs, hung components.

The pipeline must degrade to *rejection with a reason*, never to an
unhandled exception — a capture that cannot be verified is treated like
an attack, which is the safe default for an authentication system.

The hung-component machinery (:class:`HangingVerifier`,
:class:`HungComponentSystem`, the ``hung_system`` fixture) is shared with
the gateway tests: it wraps a trained system so that one chosen user's
sound-field verifier blocks until released, simulating a wedged model.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import (
    DefenseConfig,
    DistanceVerifier,
    LoudspeakerDetector,
    recover_trajectory,
)
from repro.core.decision import ComponentResult
from repro.errors import CaptureError, ConfigurationError, SignalError
from repro.physics.geometry import Pose, SampledPath
from repro.sensors.base import SensorSeries
from repro.world.scene import SensorCapture


class HangingVerifier:
    """A sound-field verifier stand-in that blocks until released."""

    def __init__(self, release: threading.Event, max_hang_s: float = 60.0):
        self._release = release
        self._max_hang_s = max_hang_s
        self.calls = 0

    def verify(self, capture) -> ComponentResult:
        self.calls += 1
        self._release.wait(self._max_hang_s)
        return ComponentResult(
            name="soundfield",
            passed=False,
            score=float("-inf"),
            detail="hung verifier released",
        )


class HungComponentSystem:
    """Proxy over a trained system that hangs one user's sound-field model.

    Everything else delegates to the wrapped
    :class:`~repro.core.pipeline.DefenseSystem`, so concurrent requests
    for other users are served normally.
    """

    def __init__(self, system, hung_user: str, release: threading.Event):
        self._system = system
        self._hung_user = hung_user
        self.hanging_verifier = HangingVerifier(release)

    def __getattr__(self, name):
        return getattr(self._system, name)

    def soundfield_for(self, speaker_id: str):
        if speaker_id == self._hung_user:
            return self.hanging_verifier
        return self._system.soundfield_for(speaker_id)


@pytest.fixture()
def hung_system(small_world):
    """(proxy system, hung user id, release event); released on teardown."""
    release = threading.Event()
    users = sorted(small_world.users)
    proxy = HungComponentSystem(small_world.system, users[-1], release)
    yield proxy, users[-1], release
    release.set()


def _degraded_capture(genuine, **overrides):
    """Copy a capture with selected streams replaced."""
    fields = {
        "audio": genuine.audio,
        "audio_sample_rate": genuine.audio_sample_rate,
        "pilot_hz": genuine.pilot_hz,
        "magnetometer": genuine.magnetometer,
        "accelerometer": genuine.accelerometer,
        "gyroscope": genuine.gyroscope,
        "path": genuine.path,
        "source_kind": genuine.source_kind,
        "environment_name": genuine.environment_name,
        "metadata": genuine.metadata,
        "audio_secondary": genuine.audio_secondary,
    }
    fields.update(overrides)
    return SensorCapture(**fields)


class TestDegradedCaptures:
    def test_frozen_gyro_fails_distance_gracefully(self, genuine_capture_5cm):
        frozen = SensorSeries(
            genuine_capture_5cm.gyroscope.times,
            np.zeros_like(genuine_capture_5cm.gyroscope.values),
        )
        capture = _degraded_capture(genuine_capture_5cm, gyroscope=frozen)
        result = DistanceVerifier(DefenseConfig()).verify(capture)
        assert not result.passed
        assert result.score == float("-inf")

    def test_silent_audio_rejected_by_soundfield(
        self, small_world, world_user, genuine_capture_5cm
    ):
        """No speech → no sound field to verify.

        (Distance verification survives silent audio: the phase track
        degrades but the IMU still legitimately observed the sweep.)
        """
        capture = _degraded_capture(
            genuine_capture_5cm, audio=np.zeros_like(genuine_capture_5cm.audio)
        )
        result = small_world.system.soundfield_for(world_user).verify(capture)
        assert not result.passed

    def test_no_pilot_raises_capture_error(self, genuine_capture_5cm):
        capture = _degraded_capture(genuine_capture_5cm, pilot_hz=0.0)
        with pytest.raises(CaptureError):
            recover_trajectory(capture)

    def test_saturated_magnetometer_detected(self, genuine_capture_5cm):
        """A railed sensor reads as a detection, not as silence."""
        series = genuine_capture_5cm.magnetometer
        railed = series.values.copy()
        railed[len(railed) // 2 :] = 1200.0
        capture = _degraded_capture(
            genuine_capture_5cm,
            magnetometer=SensorSeries(series.times, railed),
        )
        result = LoudspeakerDetector(DefenseConfig()).verify(capture)
        assert not result.passed

    def test_truncated_magnetometer_fails_gracefully(self, genuine_capture_5cm):
        series = genuine_capture_5cm.magnetometer
        short = SensorSeries(series.times[:4], series.values[:4])
        capture = _degraded_capture(genuine_capture_5cm, magnetometer=short)
        result = LoudspeakerDetector(DefenseConfig()).verify(capture)
        assert not result.passed

    def test_soundfield_rejects_short_audio(self, small_world, world_user, genuine_capture_5cm):
        capture = _degraded_capture(
            genuine_capture_5cm, audio=genuine_capture_5cm.audio[:100]
        )
        result = small_world.system.soundfield_for(world_user).verify(capture)
        assert not result.passed


class TestDegenerateInputs:
    def test_static_path_has_no_sweep(self):
        times = np.linspace(0.0, 1.0, 50)
        poses = [Pose(np.array([0.1, 0.0, 0.0]), np.eye(3)) for _ in times]
        path = SampledPath(times, poses)
        assert path.duration == 1.0
        assert np.allclose(path.velocities(), 0.0, atol=1e-9)

    def test_gmm_constant_features_survive(self):
        from repro.asv import DiagonalGMM

        x = np.ones((50, 3)) + np.random.default_rng(0).normal(0, 1e-9, (50, 3))
        gmm = DiagonalGMM(2, seed=0).fit(x)
        assert np.all(np.isfinite(gmm.log_likelihood(x)))

    def test_svm_duplicate_points(self):
        from repro.ml import LinearSVM

        x = np.array([[0.0, 0.0]] * 10 + [[1.0, 1.0]] * 10)
        y = np.concatenate([-np.ones(10), np.ones(10)])
        svm = LinearSVM().fit(x, y)
        assert svm.accuracy(x, y) == 1.0

    def test_pca_on_identical_rows(self):
        from repro.ml import PCA

        x = np.ones((10, 4))
        pca = PCA(n_components=2).fit(x)
        projected = pca.transform(x)
        assert np.allclose(projected, 0.0)

    def test_mimic_with_unvoiced_samples_raises(self, synthesizer):
        from repro.attacks import HumanMimicAttack
        from repro.voice import random_profile

        rng = np.random.default_rng(0)
        attacker = random_profile("a", rng)
        silence = [np.zeros(16000)]
        with pytest.raises(SignalError):
            HumanMimicAttack(attacker).prepare(silence, "12", "t", rng)

    def test_capture_error_components_fail_closed(self, small_world, world_user):
        """A completely empty capture yields REJECT from every component."""
        times = np.linspace(0.0, 1.0, 120)
        flat = SensorSeries(times, np.zeros((120, 3)))
        path = SampledPath(
            [0.0, 1.0],
            [Pose(np.zeros(3), np.eye(3)), Pose(np.zeros(3), np.eye(3))],
        )
        capture = SensorCapture(
            audio=np.zeros(48000),
            audio_sample_rate=48000,
            pilot_hz=20000.0,
            magnetometer=flat,
            accelerometer=flat,
            gyroscope=flat,
            path=path,
            source_kind="unknown",
            environment_name="void",
        )
        report = small_world.system.verify(capture, world_user)
        assert not report.accepted


class TestHungComponent:
    """A wedged component must degrade, not stall the serving path."""

    def test_hung_component_times_out_and_rejects(
        self, hung_system, world_user, world_genuine_capture
    ):
        from repro.server import Gateway, GatewayConfig, decode_decision, encode_request

        proxy, hung_user, _release = hung_system
        # The budget must sit far below the 60 s hang window yet leave
        # healthy components ample room under full-suite CPU contention.
        config = GatewayConfig(
            request_workers=4,
            component_timeout_s=5.0,
            component_retries=0,
        )
        frames = [
            encode_request(world_genuine_capture, hung_user, request_id="hung"),
            encode_request(world_genuine_capture, world_user, request_id="ok-1"),
            encode_request(world_genuine_capture, world_user, request_id="ok-2"),
        ]
        t0 = time.perf_counter()
        with Gateway(proxy, config) as gateway:
            decisions = [decode_decision(f) for f in gateway.handle_many(frames)]
        wall_s = time.perf_counter() - t0

        by_id = {d["request_id"]: d for d in decisions}
        hung = by_id["hung"]
        assert hung["accepted"] is False
        assert hung["components"]["soundfield"]["passed"] is False
        assert "execution budget" in hung["components"]["soundfield"]["detail"]
        # The healthy requests were untouched by the hung neighbour.
        for rid in ("ok-1", "ok-2"):
            assert by_id[rid]["components"]["soundfield"]["passed"] is True
        # The timeout cut the hang off: nowhere near the 60 s hang window.
        assert wall_s < 20.0

    def test_timed_out_worker_is_replaced(self, hung_system, world_user,
                                          world_genuine_capture):
        """After a timeout the scheduler still has capacity for new jobs."""
        from repro.server import Gateway, GatewayConfig, decode_decision, encode_request

        proxy, hung_user, _release = hung_system
        # One request worker: three component threads, one per detection stage.
        config = GatewayConfig(request_workers=1, component_timeout_s=5.0)
        with Gateway(proxy, config) as gateway:
            first = decode_decision(
                gateway.handle(
                    encode_request(world_genuine_capture, hung_user, request_id="a")
                )
            )
            # The hung job is still occupying its original worker thread,
            # but a replacement was spawned: a full healthy request fits.
            second = decode_decision(
                gateway.handle(
                    encode_request(world_genuine_capture, world_user, request_id="b")
                )
            )
        assert first["accepted"] is False
        assert second["components"]["soundfield"]["passed"] is True
