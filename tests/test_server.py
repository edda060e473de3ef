"""Tests for the client/server prototype: protocol, scheduler, round trip."""

import threading
import time

import numpy as np
import pytest

from repro.errors import ComponentTimeoutError, ConfigurationError, ProtocolError
from repro.server import (
    JobScheduler,
    MobileClient,
    VerificationServer,
    decode_decision,
    decode_request,
    encode_decision,
    encode_request,
)
from repro.server.client import summarize_trials


class TestProtocol:
    def test_request_roundtrip(self, genuine_capture_5cm):
        frame = encode_request(genuine_capture_5cm, "alice")
        capture, claimed = decode_request(frame)
        assert claimed == "alice"
        assert np.allclose(capture.audio, genuine_capture_5cm.audio, atol=1e-4)
        assert np.allclose(
            capture.magnetometer.values,
            genuine_capture_5cm.magnetometer.values,
            atol=1e-3,
        )
        assert capture.pilot_hz == genuine_capture_5cm.pilot_hz

    def test_anonymous_request(self, genuine_capture_5cm):
        frame = encode_request(genuine_capture_5cm, None)
        _, claimed = decode_request(frame)
        assert claimed is None

    def test_decision_roundtrip(self):
        frame = encode_decision(
            True, {"magnetic": (True, -0.5, "quiet")}, request_id="r1"
        )
        decision = decode_decision(frame)
        assert decision["accepted"] is True
        assert decision["components"]["magnetic"]["score"] == -0.5

    def test_corrupted_frame_rejected(self, genuine_capture_5cm):
        frame = bytearray(encode_request(genuine_capture_5cm, "a"))
        frame[-1] ^= 0xFF
        with pytest.raises(ProtocolError):
            decode_request(bytes(frame))

    def test_wrong_kind_rejected(self, genuine_capture_5cm):
        request = encode_request(genuine_capture_5cm, "a")
        with pytest.raises(ProtocolError):
            decode_decision(request)

    def test_truncated_frame_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(b"RV")

    def test_bad_magic_rejected(self, genuine_capture_5cm):
        frame = bytearray(encode_request(genuine_capture_5cm, "a"))
        frame[0] = ord("X")
        with pytest.raises(ProtocolError):
            decode_request(bytes(frame))

    def test_frame_is_raw_float32_plus_meta(self, genuine_capture_5cm):
        """Arrays ship as raw float32: a request frame costs its arrays'
        float32 bytes plus at most 2 kB of header and meta block."""
        capture = genuine_capture_5cm
        arrays = [
            capture.audio,
            capture.magnetometer.times,
            capture.magnetometer.values,
            capture.accelerometer.times,
            capture.accelerometer.values,
            capture.gyroscope.times,
            capture.gyroscope.values,
        ]
        if capture.audio_secondary is not None:
            arrays.append(capture.audio_secondary)
        raw_bytes = sum(4 * np.asarray(a).size for a in arrays)
        frame = encode_request(capture, "a")
        assert raw_bytes < len(frame) <= raw_bytes + 2048


class TestScheduler:
    def test_runs_all_jobs(self):
        with JobScheduler(workers=2) as scheduler:
            results = scheduler.run_all(
                {"a": lambda: 1, "b": lambda: 2, "c": lambda: 3}
            )
        assert {r.value for r in results.values()} == {1, 2, 3}
        assert all(r.ok for r in results.values())

    def test_exception_captured_not_raised(self):
        def boom():
            raise ValueError("nope")

        with JobScheduler(workers=1) as scheduler:
            results = scheduler.run_all({"bad": boom, "good": lambda: 7})
        assert not results["bad"].ok
        assert isinstance(results["bad"].error, ValueError)
        assert results["good"].value == 7

    def test_parallel_execution(self):
        barrier = threading.Barrier(3, timeout=5.0)

        def wait():
            barrier.wait()
            return True

        with JobScheduler(workers=3) as scheduler:
            results = scheduler.run_all({f"j{i}": wait for i in range(3)})
        assert all(r.ok for r in results.values())

    def test_empty_jobs(self):
        with JobScheduler() as scheduler:
            assert scheduler.run_all({}) == {}

    def test_shutdown_idempotent(self):
        scheduler = JobScheduler()
        scheduler.run_all({"x": lambda: 1})
        scheduler.shutdown()
        scheduler.shutdown()

    def test_run_all_after_shutdown_rejected(self):
        scheduler = JobScheduler()
        scheduler.run_all({"x": lambda: 1})
        scheduler.shutdown()
        with pytest.raises(ConfigurationError):
            scheduler.run_all({"y": lambda: 2})
        # Even an empty submission is a misuse of a closed scheduler.
        with pytest.raises(ConfigurationError):
            scheduler.run_all({})
        assert scheduler.closed

    def test_context_exit_drains_in_flight_jobs(self):
        """Jobs already running when the context exits still deliver."""
        entered = threading.Event()
        outcome = {}

        def slow():
            entered.set()
            time.sleep(0.3)
            return "finished"

        scheduler = JobScheduler(workers=1)

        def runner():
            outcome.update(scheduler.run_all({"slow": slow}))

        with scheduler:
            t = threading.Thread(target=runner)
            t.start()
            assert entered.wait(5.0)
            # __exit__ runs now, while the job is mid-flight.
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert outcome["slow"].ok
        assert outcome["slow"].value == "finished"


class TestSchedulerTimeouts:
    def test_hung_job_times_out_others_complete(self):
        release = threading.Event()

        def hang():
            release.wait(30.0)
            return "late"

        try:
            with JobScheduler(workers=2) as scheduler:
                t0 = time.perf_counter()
                results = scheduler.run_all(
                    {"hang": hang, "quick": lambda: 42}, timeout_s=0.3
                )
                elapsed = time.perf_counter() - t0
            assert results["quick"].ok and results["quick"].value == 42
            assert not results["hang"].ok
            assert results["hang"].timed_out
            assert isinstance(results["hang"].error, ComponentTimeoutError)
            assert elapsed < 10.0
        finally:
            release.set()

    def test_pool_capacity_survives_timeout(self):
        """A timed-out worker is replaced; later jobs run normally."""
        release = threading.Event()
        try:
            with JobScheduler(workers=1) as scheduler:
                first = scheduler.run_all(
                    {"hang": lambda: release.wait(30.0)}, timeout_s=0.2
                )
                assert first["hang"].timed_out
                # The lone original worker is still stuck in the hung job;
                # this only completes if a replacement worker was spawned.
                second = scheduler.run_all({"ok": lambda: "alive"}, timeout_s=5.0)
            assert second["ok"].ok and second["ok"].value == "alive"
        finally:
            release.set()

    def test_no_timeout_by_default(self):
        with JobScheduler(workers=1) as scheduler:
            results = scheduler.run_all({"slowish": lambda: time.sleep(0.2) or "v"})
        assert results["slowish"].ok

    def test_crash_retry_recovers(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise ValueError("transient")
            return "recovered"

        with JobScheduler(workers=1) as scheduler:
            results = scheduler.run_all({"flaky": flaky}, retries=1)
        assert results["flaky"].ok
        assert results["flaky"].value == "recovered"
        assert results["flaky"].attempts == 2

    def test_retry_budget_exhausted(self):
        def always_bad():
            raise RuntimeError("permanent")

        with JobScheduler(workers=1) as scheduler:
            results = scheduler.run_all({"bad": always_bad}, retries=2)
        assert not results["bad"].ok
        assert isinstance(results["bad"].error, RuntimeError)
        assert results["bad"].attempts == 3

    def test_timeouts_are_not_retried(self):
        calls = {"n": 0}
        release = threading.Event()

        def hang():
            calls["n"] += 1
            release.wait(30.0)

        try:
            with JobScheduler(workers=2) as scheduler:
                results = scheduler.run_all({"hang": hang}, timeout_s=0.2, retries=3)
            assert results["hang"].timed_out
            assert calls["n"] == 1
        finally:
            release.set()

    def test_shutdown_without_drain_cancels_queued_jobs(self):
        started = threading.Event()
        release = threading.Event()
        outcome = {}

        def blocker():
            started.set()
            release.wait(30.0)
            return "first"

        scheduler = JobScheduler(workers=1)

        def runner():
            outcome.update(
                scheduler.run_all({"blocker": blocker, "queued": lambda: "second"})
            )

        t = threading.Thread(target=runner)
        t.start()
        try:
            assert started.wait(5.0)
            # Unblock the in-flight job shortly after shutdown cancels the
            # queued one, so shutdown's thread-join returns promptly.
            threading.Timer(0.3, release.set).start()
            scheduler.shutdown(drain=False)  # "queued" never got a worker
            t.join(timeout=10.0)
            assert not t.is_alive()
            assert outcome["blocker"].ok
            assert isinstance(outcome["queued"].error, ConfigurationError)
        finally:
            release.set()

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            JobScheduler(workers=0)
        with pytest.raises(ConfigurationError):
            JobScheduler(default_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            JobScheduler(default_retries=-1)


class TestServerRoundTrip:
    def test_genuine_accepted_end_to_end(
        self, small_world, world_user, world_genuine_capture
    ):
        server = VerificationServer(small_world.system)
        try:
            client = MobileClient(server)
            report = client.authenticate(world_genuine_capture, world_user)
            assert report.accepted
            assert report.total_s > report.server_s
            assert server.last_stats is not None
            assert server.last_stats.total_s > 0
        finally:
            server.close()

    def test_replay_rejected_end_to_end(
        self, small_world, world_user, world_replay_capture
    ):
        server = VerificationServer(small_world.system)
        try:
            client = MobileClient(server)
            report = client.authenticate(world_replay_capture, world_user)
            assert not report.accepted
        finally:
            server.close()

    def test_summary_statistics(self, small_world, world_user, world_genuine_capture):
        server = VerificationServer(small_world.system)
        try:
            client = MobileClient(server)
            reports = [
                client.authenticate(world_genuine_capture, world_user)
                for _ in range(3)
            ]
            summary = summarize_trials(reports)
            assert summary["trials"] == 3
            assert summary["mean_s"] > 0
            assert 0.0 <= summary["success_rate"] <= 1.0
        finally:
            server.close()
