"""Fast coverage for the CLI runner and miscellaneous helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.__main__ import EXPERIMENTS, main
from repro.errors import ProtocolError
from repro.physics.geometry import Pose, SampledPath
from repro.sensors.base import SensorSeries
from repro.server.protocol import (
    KIND_REQUEST,
    _HEADER,
    _seal,
    decode_request_full,
    encode_request,
)
from repro.world.scene import SensorCapture


class TestCLI:
    def test_fig10_runs_standalone(self, capsys):
        assert main(["fig10"]) == 0
        out = capsys.readouterr().out
        assert "µT" in out
        assert "axial ratio" in out

    def test_table1_listed(self):
        assert "table1" in EXPERIMENTS
        assert "fig12a" in EXPERIMENTS

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])


def _tiny_capture(audio, magnetometer_values):
    """A minimal capture carrying the given audio and magnetometer rows."""
    times = np.arange(magnetometer_values.shape[0], dtype=float)
    still = Pose(np.zeros(3), np.eye(3))
    return SensorCapture(
        audio=audio,
        audio_sample_rate=16_000,
        pilot_hz=20_000.0,
        magnetometer=SensorSeries(times, magnetometer_values),
        accelerometer=SensorSeries(times, np.zeros((times.size, 3))),
        gyroscope=SensorSeries(times, np.zeros((times.size, 3))),
        path=SampledPath([0.0, 1.0], [still, still]),
        source_kind="human",
        environment_name="quiet",
    )


def _codec_roundtrip(audio, magnetometer_values):
    """``(audio, magnetometer values)`` after a request frame round trip."""
    frame = encode_request(_tiny_capture(audio, magnetometer_values), "alice")
    decoded, _, _ = decode_request_full(frame)
    return decoded.audio, decoded.magnetometer.values


class TestProtocolArrays:
    @settings(max_examples=25)
    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, width=32),
            min_size=1,
            max_size=64,
        )
    )
    def test_pack_unpack_roundtrip(self, values):
        arr = np.array(values, dtype=np.float32)
        out, _ = _codec_roundtrip(arr, np.zeros((2, 3)))
        assert out.dtype == np.float64
        assert np.array_equal(out, arr)

    def test_2d_shape_preserved(self):
        arr = np.arange(12.0).reshape(3, 4)
        _, out = _codec_roundtrip(np.zeros(8), arr)
        assert out.shape == (3, 4)
        assert np.array_equal(out, arr)

    def test_malformed_field_rejected(self):
        """Array bytes that fall short of the declared shapes are refused
        even when the header's length and checksum match them."""
        frame = encode_request(_tiny_capture(np.zeros(8), np.zeros((4, 3))), "a")
        short = _seal(KIND_REQUEST, frame[_HEADER.size : -4])
        with pytest.raises(ProtocolError, match="array bytes"):
            decode_request_full(short)


class TestSoundFieldCalibration:
    def test_threshold_is_between_clusters(self, small_world, world_user):
        verifier = small_world.system.soundfield_for(world_user)
        assert verifier.threshold_ is not None
        # The calibrated threshold must sit below the typical genuine
        # score (otherwise enrolment itself would be rejected).
        account = small_world.user(world_user)
        from repro.core.soundfield import delta_features, extract_sweep_trace

        scores = [
            verifier._score_features(
                delta_features(extract_sweep_trace(c), verifier.reference)
            )
            for c in account.enrolment_captures[1:4]
        ]
        assert np.median(scores) > verifier.threshold_

    def test_decision_threshold_fallback(self):
        from repro.core.config import DefenseConfig
        from repro.core.soundfield import SoundFieldVerifier

        verifier = SoundFieldVerifier(DefenseConfig())
        assert verifier.decision_threshold == DefenseConfig().soundfield_threshold


class TestHumanMimicAnatomy:
    def test_formant_shift_clamped(self, synthesizer):
        from repro.attacks import HumanMimicAttack
        from repro.voice import random_profile

        rng = np.random.default_rng(3)
        attacker = random_profile("a", rng)
        target = random_profile("t", rng)
        waves = [
            synthesizer.synthesize_digits(target, "135", rng).waveform
            for _ in range(2)
        ]
        attack = HumanMimicAttack(attacker, fidelity=1.0, formant_limit=0.02)
        mimic = attack.mimic_profile(waves, "t")
        assert abs(mimic.formant_scale - attacker.formant_scale) <= 0.02 + 1e-9
        assert mimic.formant_offsets == attacker.formant_offsets
