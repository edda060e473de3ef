"""MagLive-style magnetic-pattern liveness: the A/B-able fifth stage.

The detector correlates the magnetometer residual with the recorded
audio envelope — a dynamic loudspeaker's voice coil tracks the playback
envelope, a larynx radiates nothing.  These tests pin the physics-level
separation (genuine vs coil-driven replay), the fail-closed error path,
and the opt-in wiring through pipeline, cascade, and the serving gateways.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import ALL_COMPONENTS, DefenseConfig
from repro.core.cascade import DEFAULT_STAGE_POLICIES, CascadePlan, pass_boundary
from repro.core.magliveness import (
    MagneticLivenessDetector,
    envelope_correlation,
)
from repro.core.pipeline import COMPONENT_ORDER
from repro.errors import CaptureError, ConfigurationError
from repro.sensors.base import SensorSeries
from repro.server import GatewayConfig, create_gateway, decode_decision, encode_request
from tests.test_golden_decisions import build_cell

SEEDS = (10, 11, 12)


@pytest.fixture(scope="module")
def detector(small_world):
    return MagneticLivenessDetector(small_world.system.config)


def _capture(small_world, scenario, seed):
    rng = np.random.default_rng(seed)
    capture, _ = build_cell(small_world, "quiet_room", scenario, rng)
    return capture


@pytest.mark.parametrize("seed", SEEDS)
def test_genuine_capture_passes(small_world, detector, seed):
    result = detector.verify(_capture(small_world, "genuine", seed))
    assert result.name == "magliveness"
    assert result.passed
    assert result.score > -1.0


@pytest.mark.parametrize("seed", SEEDS)
def test_dynamic_replay_fails(small_world, detector, seed):
    """An LS21's coil field tracks the playback envelope."""
    result = detector.verify(_capture(small_world, "replay", seed))
    assert not result.passed
    assert result.score < -1.0
    assert result.evidence["envelope_corr"] > detector.config.magliveness_corr_threshold


@pytest.mark.parametrize("scenario", ["piezo_replay", "shielded_replay"])
def test_coilless_or_shielded_speakers_evade_this_stage(
    small_world, detector, scenario
):
    """No (or shielded) coil field ⇒ nothing to correlate: the stage
    passes, and the cascade relies on sound field / distance instead —
    exactly the division of labour the golden matrix pins."""
    for seed in SEEDS:
        result = detector.verify(_capture(small_world, scenario, seed))
        assert result.passed, (scenario, seed)


def test_evidence_contract(small_world, detector):
    result = detector.verify(_capture(small_world, "replay", SEEDS[0]))
    strength = result.evidence["detection_strength"]
    assert result.score == -strength
    assert set(result.evidence) == {
        "envelope_corr",
        "corr_threshold",
        "fluctuation_rms_ut",
        "min_fluctuation_ut",
        "n_samples",
        "detection_strength",
    }
    assert result.evidence["corr_threshold"] == detector.config.magliveness_corr_threshold
    assert "envelope corr" in result.detail


def test_short_magnetometer_stream_fails_closed(small_world, detector):
    capture = _capture(small_world, "genuine", SEEDS[0])
    series = capture.magnetometer
    truncated = dataclasses.replace(
        capture,
        magnetometer=SensorSeries(series.times[:8], series.values[:8]),
    )
    with pytest.raises(CaptureError):
        envelope_correlation(truncated)
    result = detector.verify(truncated)
    assert not result.passed
    assert result.score == float("-inf")


def test_fluctuation_gate_zeroes_noise_correlation(small_world):
    """Below the noise-floor gate the strength is exactly zero, whatever
    the (spurious) correlation of ambient noise says."""
    config = DefenseConfig(magliveness_min_fluctuation_ut=1e9)
    gated = MagneticLivenessDetector(config)
    capture = _capture(small_world, "replay", SEEDS[0])
    assert gated.detection_strength(gated.signature(capture)) == 0.0
    assert gated.verify(capture).passed


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DefenseConfig(magliveness_corr_threshold=0.0)
    with pytest.raises(ConfigurationError):
        DefenseConfig(magliveness_corr_threshold=1.5)
    with pytest.raises(ConfigurationError):
        DefenseConfig(magliveness_min_fluctuation_ut=-0.1)


# ----------------------------------------------------------------- wiring


def test_default_components_unchanged():
    """The paper's four stages stay the default; magliveness is opt-in."""
    assert COMPONENT_ORDER == ("distance", "soundfield", "magnetic", "identity")
    assert ALL_COMPONENTS == COMPONENT_ORDER + ("magliveness",)


def test_cascade_orders_magliveness_after_magnetic():
    plan = CascadePlan(DEFAULT_STAGE_POLICIES)
    order = plan.order(list(ALL_COMPONENTS))
    assert order.index("magnetic") < order.index("magliveness")
    assert order.index("magliveness") < order.index("identity")
    assert pass_boundary("magliveness", DefenseConfig()) == -1.0


def test_enable_component_adds_fifth_stage(small_world):
    system = small_world.system
    original = system.enabled_components
    assert "magliveness" not in original
    try:
        system.enable_component("magliveness")
        assert system.enabled_components == ALL_COMPONENTS
        capture = _capture(small_world, "replay", SEEDS[0])
        report = system.verify(capture, sorted(small_world.users)[0])
        assert set(report.components) == set(ALL_COMPONENTS)
        assert not report.components["magliveness"].passed
    finally:
        system.enabled_components = original
    report = system.verify(capture, sorted(small_world.users)[0])
    assert set(report.components) == set(COMPONENT_ORDER)


def test_enable_component_rejects_unknown(small_world):
    with pytest.raises(ConfigurationError):
        small_world.system.enable_component("telepathy")


def test_gateway_serves_stage_enabled_on_the_system(small_world):
    """Enabled on the system before the gateway is built, the stage runs
    in threaded mode and in a forked shard, which inherits it."""
    system = small_world.system
    original = system.enabled_components
    capture = _capture(small_world, "replay", SEEDS[0])
    frame = encode_request(capture, sorted(small_world.users)[0])
    try:
        system.enable_component("magliveness")
        for shards in (0, 1):
            with create_gateway(system, GatewayConfig(shards=shards)) as gateway:
                decision = decode_decision(gateway.handle(frame))
            assert set(decision["components"]) == set(ALL_COMPONENTS), shards
            assert not decision["components"]["magliveness"]["passed"], shards
    finally:
        system.enabled_components = original


def test_building_a_gateway_never_changes_enabled_components(small_world):
    system = small_world.system
    before = system.enabled_components
    configs = (GatewayConfig(), GatewayConfig(cascade=True), GatewayConfig(shards=1))
    for config in configs:
        with create_gateway(system, config):
            assert system.enabled_components == before
    assert system.enabled_components == before
