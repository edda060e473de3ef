"""Runtime sanitizers: NaN/Inf guards and the lock-order harness.

Includes the sanitizer-enabled serving-path test: a gateway burst runs
with the guards active and with every gateway/batcher/scheduler lock
wrapped in the rank-checking :class:`LockOrderGuard` proxies — proving
both that healthy traffic raises nothing and that the serving path's
locks never nest out of order.
"""

import math
import threading

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import LockOrderGuard
from repro.core.decision import ComponentResult
from repro.errors import LockOrderError, SanitizerError
from repro.server import Gateway, GatewayConfig, decode_decision, encode_request


@pytest.fixture(scope="module")
def request_frames(small_world, world_genuine_capture, world_replay_capture):
    """A mixed 8-request burst over both enrolled users."""
    u0, u1 = sorted(small_world.users)
    return [
        encode_request(
            world_genuine_capture if i % 3 else world_replay_capture,
            u0 if i % 2 else u1,
            request_id=f"san-{i}",
        )
        for i in range(8)
    ]


@pytest.fixture()
def active_sanitizer():
    with sanitize.activated():
        yield


@pytest.fixture()
def inactive_sanitizer():
    """Force-disable (the suite may run under REPRO_SANITIZE=1 in CI)."""
    prev = sanitize.enabled()
    sanitize.disable()
    yield
    if prev:
        sanitize.enable()


class TestFiniteGuards:
    def test_disabled_guards_are_pass_through(self, inactive_sanitizer):
        assert not sanitize.enabled()
        bad = np.array([1.0, np.nan])
        assert sanitize.check_array("k", bad) is bad
        assert sanitize.check_scalar("k", math.inf) == math.inf

    def test_check_array_raises_on_nan_and_inf(self, active_sanitizer):
        with pytest.raises(SanitizerError, match="kernel 'mel.mfcc'"):
            sanitize.check_array("mel.mfcc", np.array([0.0, np.nan]))
        with pytest.raises(SanitizerError):
            sanitize.check_array("k", np.array([[np.inf]]))

    def test_check_array_passes_finite_and_non_float(self, active_sanitizer):
        ok = np.array([1.0, -2.5])
        assert sanitize.check_array("k", ok) is ok
        ints = np.array([1, 2, 3])
        assert sanitize.check_array("k", ints) is ints

    def test_check_scalar(self, active_sanitizer):
        assert sanitize.check_scalar("k", 3.5) == 3.5
        with pytest.raises(SanitizerError):
            sanitize.check_scalar("k", float("nan"))

    def test_activated_restores_previous_state(self, inactive_sanitizer):
        assert not sanitize.enabled()
        with sanitize.activated():
            assert sanitize.enabled()
        assert not sanitize.enabled()


class TestDecisionFrameGuards:
    @staticmethod
    def result(score, evidence=None):
        return ComponentResult(
            name="distance",
            passed=False,
            score=score,
            detail="",
            evidence=evidence or {},
        )

    def test_nan_score_raises(self, active_sanitizer):
        with pytest.raises(SanitizerError, match="scored"):
            sanitize.check_result(self.result(float("nan")))

    def test_positive_inf_score_raises(self, active_sanitizer):
        with pytest.raises(SanitizerError):
            sanitize.check_result(self.result(float("inf")))

    def test_negative_inf_error_marker_passes(self, active_sanitizer):
        # -inf is the documented fail-closed score of a crashed
        # component; the sanitizer must let it reach the decision layer.
        r = self.result(float("-inf"))
        assert sanitize.check_result(r) is r

    def test_non_finite_evidence_raises(self, active_sanitizer):
        with pytest.raises(SanitizerError, match="evidence"):
            sanitize.check_result(
                self.result(0.2, {"distance_m": float("nan")})
            )

    def test_check_results_covers_every_component(self, active_sanitizer):
        results = {"a": self.result(0.1), "b": self.result(float("nan"))}
        with pytest.raises(SanitizerError):
            sanitize.check_results(results)


class TestLockOrderGuard:
    def test_clean_nesting_passes_and_counts(self):
        guard = LockOrderGuard()
        outer = guard.wrap(threading.Lock(), "outer", rank=10)
        inner = guard.wrap(threading.Lock(), "inner", rank=20)
        with outer:
            with inner:
                pass
        assert guard.max_depth() == 2
        assert guard.acquisitions() == 2

    def test_out_of_order_acquisition_raises(self):
        guard = LockOrderGuard()
        outer = guard.wrap(threading.Lock(), "outer", rank=10)
        inner = guard.wrap(threading.Lock(), "inner", rank=20)
        with pytest.raises(LockOrderError, match="lock order violation"):
            with inner:
                with outer:
                    pass
        # The failed acquire must not leak held state.
        with outer:
            with inner:
                pass

    def test_same_rank_reacquisition_raises(self):
        guard = LockOrderGuard()
        a = guard.wrap(threading.Lock(), "a", rank=10)
        b = guard.wrap(threading.Lock(), "b", rank=10)
        with a:
            with pytest.raises(LockOrderError):
                b.acquire()

    def test_duplicate_name_rejected(self):
        guard = LockOrderGuard()
        guard.wrap(threading.Lock(), "a", rank=1)
        with pytest.raises(LockOrderError):
            guard.wrap(threading.Lock(), "a", rank=2)

    def test_held_stacks_are_per_thread(self):
        guard = LockOrderGuard()
        high = guard.wrap(threading.Lock(), "high", rank=20)
        low = guard.wrap(threading.Lock(), "low", rank=10)
        errors = []

        def other_thread():
            try:
                with low:
                    pass
            except LockOrderError as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with high:
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert errors == []


class TestSanitizedServingPath:
    def test_gateway_burst_under_sanitizers_and_lock_order_harness(
        self, small_world, request_frames, active_sanitizer
    ):
        """Healthy traffic: sanitizers silent, lock ranks never invert."""
        guard = LockOrderGuard()
        config = GatewayConfig(request_workers=6)
        with Gateway(small_world.system, config) as gateway:
            gateway._lock = guard.wrap(gateway._lock, "gateway.admission", rank=10)
            sched = gateway._scheduler
            sched._lock = guard.wrap(sched._lock, "scheduler.pool", rank=30)
            sys_ = small_world.system
            sys_._soundfield_lock = guard.wrap(
                sys_._soundfield_lock, "pipeline.soundfield", rank=40
            )
            sys_._stats_lock = guard.wrap(
                sys_._stats_lock, "pipeline.stats", rank=50
            )
            try:
                decisions = [
                    decode_decision(f)
                    for f in gateway.handle_many(request_frames)
                ]
            finally:
                sys_._soundfield_lock = sys_._soundfield_lock._lock
                sys_._stats_lock = sys_._stats_lock._lock
        assert len(decisions) == len(request_frames)
        assert guard.acquisitions() > 0

    def test_poisoned_component_is_caught_at_the_frame_boundary(
        self, small_world, world_genuine_capture, world_user, active_sanitizer
    ):
        """A NaN score from a component trips the decision-frame guard."""
        system = small_world.system
        results = {
            "distance": ComponentResult(
                name="distance",
                passed=True,
                score=float("nan"),
                detail="",
                evidence={},
            )
        }
        with pytest.raises(SanitizerError):
            sanitize.check_results(results)
        # And the pipeline wrapper guards real component output too.
        result = system.run_component(
            "distance", world_genuine_capture, world_user
        )
        assert math.isfinite(result.score)
