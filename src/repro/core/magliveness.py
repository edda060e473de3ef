"""Component 5 (optional): MagLive-style magnetic-pattern liveness.

The paper's magnetometer component thresholds the *static* field (``Mt``)
and its changing rate (``βt``).  MagLive (arxiv 2404.01106) exploits a
stronger signature: a dynamic loudspeaker's voice coil is driven by the
playback signal, so the magnetic field it radiates *fluctuates with the
audio envelope*.  A human larynx produces no magnetic field at all, so
the correlation between the recorded field fluctuation and the recorded
audio envelope is a liveness channel orthogonal to the absolute-strength
thresholds — it stays discriminative even for weakly-magnetised speakers
whose field never crosses ``Mt``.

The detector:

1. detrends the field magnitude |B| with a moving-average baseline (the
   approach ramp of the use-case motion and the Earth field drop out);
2. computes the audio playback envelope from the *recorded* capture
   audio (|x| low-passed below the magnetometer Nyquist), resampled onto
   the magnetometer timestamps and detrended the same way;
3. gates on the residual fluctuation RMS — below the noise floor the
   correlation of ambient noise is spurious and the strength is zero;
4. reports ``|Pearson r|`` between the two residuals, normalised by the
   configured threshold, as the detection strength.

Like the other components the continuous score is "higher = more
genuine-like": ``score = -strength``, pass boundary ``-1``.  The stage is
**off by default** (``DefenseSystem.enabled_components`` keeps the four
paper stages); enable it per deployment on the system, with
``system.enable_component("magliveness")`` or by constructing it with
``enabled_components=ALL_COMPONENTS``, before building a gateway over
it.  Sharded gateways fork their shards from that system, so they
inherit the stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DefenseConfig
from repro.core.decision import ComponentResult
from repro.dsp.filters import lowpass, moving_average
from repro.errors import CaptureError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.world.scene import SensorCapture

#: Envelope low-pass cutoff (Hz).  Must sit below the magnetometer
#: Nyquist (~50 Hz at the common 100 Hz ODR) so the resampled envelope
#: carries no alias energy; 25 Hz matches the coil-drive bandwidth the
#: scene simulator renders.
ENVELOPE_CUTOFF_HZ = 25.0

#: Detrend window as a fraction of the capture length.  Long enough to
#: keep the sub-Hz approach ramp in the baseline, short enough to leave
#: the syllable-rate (3-25 Hz) coil fluctuation in the residual.
DETREND_FRACTION = 0.125


@dataclass(frozen=True)
class LivenessSignature:
    """Scalar features the magliveness detector thresholds."""

    envelope_corr: float
    fluctuation_rms_ut: float
    n_samples: int


def _detrend(x: np.ndarray, window: int) -> np.ndarray:
    return np.asarray(x, dtype=float) - moving_average(x, window)


def envelope_correlation(
    capture: SensorCapture, detrend_fraction: float = DETREND_FRACTION
) -> LivenessSignature:
    """Correlate the field-magnitude residual with the audio envelope."""
    series = capture.magnetometer
    if len(series) < 16:
        raise CaptureError("magnetometer stream too short for liveness")
    audio = np.asarray(capture.audio, dtype=float)
    if audio.size == 0:
        raise CaptureError("empty capture audio")
    magnitude = series.magnitudes()
    window = max(5, int(detrend_fraction * magnitude.size))
    residual_b = _detrend(magnitude, window)

    envelope = lowpass(
        np.abs(audio), ENVELOPE_CUTOFF_HZ, capture.audio_sample_rate
    )
    audio_times = np.arange(audio.size) / capture.audio_sample_rate
    env_at_mag = np.interp(series.times, audio_times, envelope)
    residual_e = _detrend(env_at_mag, window)

    fluct_rms = float(np.sqrt(np.mean(residual_b**2)))
    denom = float(np.sqrt(np.sum(residual_b**2) * np.sum(residual_e**2)))
    if denom <= 1e-18:
        corr = 0.0
    else:
        corr = float(np.dot(residual_b, residual_e) / denom)
    return LivenessSignature(
        envelope_corr=corr,
        fluctuation_rms_ut=fluct_rms,
        n_samples=len(series),
    )


@dataclass
class MagneticLivenessDetector:
    """Envelope-correlation liveness check (the A/B-able fifth stage)."""

    config: DefenseConfig
    tracer: Tracer = field(default=NULL_TRACER, repr=False, compare=False)

    def signature(self, capture: SensorCapture) -> LivenessSignature:
        with self.tracer.span("dsp.magliveness_signature"):
            return envelope_correlation(capture)

    def detection_strength(self, signature: LivenessSignature) -> float:
        """|r| over the threshold; ≥ 1 means a coil is tracking the audio.

        Gated on the fluctuation noise floor: a residual below
        ``magliveness_min_fluctuation_ut`` carries no coil signal, so its
        correlation is noise and contributes zero strength.
        """
        if (
            signature.fluctuation_rms_ut
            < self.config.magliveness_min_fluctuation_ut
        ):
            return 0.0
        return abs(signature.envelope_corr) / self.config.magliveness_corr_threshold

    def verify(self, capture: SensorCapture) -> ComponentResult:
        """Pass iff the field fluctuation does not track the audio envelope."""
        try:
            sig = self.signature(capture)
        except CaptureError as exc:
            return ComponentResult(
                name="magliveness",
                passed=False,
                score=float("-inf"),
                detail=str(exc),
            )
        strength = self.detection_strength(sig)
        return ComponentResult(
            name="magliveness",
            passed=strength < 1.0,
            score=-strength,
            detail=(
                f"envelope corr {sig.envelope_corr:+.2f} "
                f"(threshold {self.config.magliveness_corr_threshold:.2f}), "
                f"fluctuation {sig.fluctuation_rms_ut:.3f} µT RMS"
            ),
            evidence={
                "envelope_corr": sig.envelope_corr,
                "corr_threshold": self.config.magliveness_corr_threshold,
                "fluctuation_rms_ut": sig.fluctuation_rms_ut,
                "min_fluctuation_ut": self.config.magliveness_min_fluctuation_ut,
                "n_samples": sig.n_samples,
                "detection_strength": strength,
            },
        )
