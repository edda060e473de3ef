"""Integration tests for the defense pipeline on the shared trained world."""

import numpy as np
import pytest

from repro.attacks import HumanMimicAttack, ReplayAttack, SoundTubeAttack
from repro.core import DefenseSystem
from repro.core.soundfield import delta_features, extract_sweep_trace
from repro.devices import Loudspeaker, get_loudspeaker
from repro.errors import ConfigurationError
from repro.experiments import attack_capture, genuine_capture
from repro.voice import random_profile


class TestGenuineFlow:
    def test_genuine_accepted(self, small_world, world_user, world_genuine_capture):
        report = small_world.system.verify(world_genuine_capture, world_user)
        assert report.accepted, {
            k: (v.passed, v.score) for k, v in report.components.items()
        }

    def test_all_components_reported(self, small_world, world_user, world_genuine_capture):
        report = small_world.system.verify(world_genuine_capture, world_user)
        assert set(report.components) == {
            "distance",
            "soundfield",
            "magnetic",
            "identity",
        }

    def test_cross_user_claim_rejected(self, small_world, world_genuine_capture):
        other = sorted(small_world.users)[1]
        report = small_world.system.verify(world_genuine_capture, other)
        assert not report.accepted


class TestAttackFlow:
    def test_pc_replay_rejected_by_magnetometer(
        self, small_world, world_user, world_replay_capture
    ):
        report = small_world.system.verify(world_replay_capture, world_user)
        assert not report.accepted
        assert not report.component("magnetic").passed

    def test_earphone_replay_rejected_by_soundfield(self, small_world, world_user):
        ear = Loudspeaker(get_loudspeaker("Apple EarPods MD827LL/A"), np.zeros(3))
        stolen = small_world.user(world_user).enrolment_waveforms[-1]
        attempt = ReplayAttack(ear).prepare(stolen, 16000, world_user)
        capture = attack_capture(small_world, attempt, 0.05)
        report = small_world.system.verify(capture, world_user)
        assert not report.accepted
        # The earphone's magnet is below Mt — exactly the paper's concern.
        assert report.component("magnetic").passed
        assert not report.component("soundfield").passed

    def test_mimic_rejected(self, small_world, world_user):
        rng = np.random.default_rng(17)
        account = small_world.user(world_user)
        attacker = random_profile("mimic", rng)
        attempt = HumanMimicAttack(attacker).prepare(
            account.enrolment_waveforms[-3:], account.passphrase, world_user, rng
        )
        capture = attack_capture(small_world, attempt, 0.05)
        report = small_world.system.verify(capture, world_user)
        assert not report.accepted
        # A human source never trips the magnetometer.
        assert report.component("magnetic").passed

    def test_soundtube_rejected(self, small_world, world_user):
        pc = Loudspeaker(get_loudspeaker("Logitech LS21"), np.zeros(3))
        stolen = small_world.user(world_user).enrolment_waveforms[-1]
        attempt = SoundTubeAttack(pc).prepare(stolen, 16000, world_user)
        capture = attack_capture(small_world, attempt, 0.05)
        report = small_world.system.verify(capture, world_user)
        assert not report.accepted
        # The tube keeps the magnet out of range of the magnetometer.
        assert report.component("magnetic").passed


class TestPipelineMechanics:
    def test_identity_requires_claim(self, small_world, world_genuine_capture):
        with pytest.raises(ConfigurationError):
            small_world.system.verify(world_genuine_capture, None)

    def test_unknown_component_rejected(self):
        with pytest.raises(ConfigurationError):
            DefenseSystem(enabled_components=("magnetic", "telepathy"))

    def test_soundfield_model_per_user(self, small_world):
        u0, u1 = sorted(small_world.users)
        assert small_world.system.soundfield_for(u0) is not small_world.system.soundfield_for(u1)

    def test_unknown_soundfield_user_rejected(self, small_world):
        with pytest.raises(ConfigurationError):
            small_world.system.soundfield_for("stranger")

    def test_with_config_propagates(self, small_world):
        original = small_world.system.config
        relaxed = original.with_sensitivity(3.0)
        small_world.system.with_config(relaxed)
        try:
            assert small_world.system.magnetic.config.magnetic_threshold_ut == pytest.approx(
                original.magnetic_threshold_ut * 3.0
            )
        finally:
            small_world.system.with_config(original)


class TestSoundFieldInternals:
    def test_delta_features_self_consistency(self, small_world, world_user):
        """A capture differenced against itself is (near) zero."""
        account = small_world.user(world_user)
        trace = extract_sweep_trace(account.enrolment_captures[1])
        feats = delta_features(trace, trace)
        assert np.abs(feats).max() < 1e-6

    def test_genuine_scores_above_threshold(self, small_world, world_user):
        verifier = small_world.system.soundfield_for(world_user)
        scores = [
            verifier.score(genuine_capture(small_world, world_user, 0.05))
            for _ in range(3)
        ]
        assert np.median(scores) > small_world.config.soundfield_threshold
