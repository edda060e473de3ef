"""Component 4: speaker identity verification (the ASV stage).

Wraps :class:`repro.asv.SpeakerVerifier` (the Spear-system stand-in) so it
consumes raw captures: the voice band is isolated from the ranging pilot,
downsampled to the ASV rate, and scored against the claimed speaker's
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from repro.asv.verifier import SpeakerVerifier, VerifierBackend
from repro.constants import DEFAULT_SAMPLE_RATE_HZ
from repro.core.config import DefenseConfig
from repro.core.decision import ComponentResult
from repro.dsp.filters import lowpass
from repro.errors import CaptureError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.world.scene import SensorCapture


def extract_voice(
    audio: np.ndarray, audio_sample_rate: int, target_rate: int = DEFAULT_SAMPLE_RATE_HZ
) -> np.ndarray:
    """Isolate the speech band of a capture and resample for the ASV.

    Low-passes well below the >16 kHz pilot, then linearly resamples.
    """
    if audio_sample_rate <= 0 or target_rate <= 0:
        raise CaptureError("sample rates must be positive")
    x = np.asarray(audio, dtype=float)
    if x.size == 0:
        raise CaptureError("empty capture audio")
    cutoff = min(7500.0, target_rate / 2.0 * 0.95)
    x = lowpass(x, cutoff, audio_sample_rate, order=4)
    if audio_sample_rate == target_rate:
        return x
    n_out = int(round(x.size * target_rate / audio_sample_rate))
    t_out = np.arange(n_out) / target_rate
    t_in = np.arange(x.size) / audio_sample_rate
    return np.interp(t_out, t_in, x)


@dataclass
class IdentityVerifier:
    """Capture-level facade over the ASV back-end."""

    config: DefenseConfig
    backend: VerifierBackend = VerifierBackend.GMM_UBM
    n_components: int = 32
    seed: int = 0
    tracer: Tracer = field(default=NULL_TRACER, repr=False, compare=False)
    verifier: SpeakerVerifier = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.verifier = SpeakerVerifier(
            backend=self.backend, n_components=self.n_components, seed=self.seed
        )

    def train_background(
        self, waveforms_by_speaker: Dict[str, Sequence[np.ndarray]]
    ) -> "IdentityVerifier":
        """Train the UBM/ISV on 16 kHz background waveforms."""
        self.verifier.train_background(waveforms_by_speaker)
        return self

    def enroll_waveforms(
        self, speaker_id: str, waveforms: Sequence[np.ndarray]
    ) -> "IdentityVerifier":
        """Enroll from clean 16 kHz waveforms."""
        self.verifier.enroll(speaker_id, waveforms)
        return self

    def enroll_captures(
        self, speaker_id: str, captures: Sequence[SensorCapture]
    ) -> "IdentityVerifier":
        """Enroll from raw captures (voice extracted automatically).

        Note: enrolling from rendered captures lets MAP adaptation absorb
        the capture channel itself, which inflates every later capture's
        score regardless of speaker (channel lock-in).  Prefer
        :meth:`enroll_waveforms` with the enrolment-phase recordings when
        they are available; this method exists for pipelines that only
        retain captures.
        """
        waves = [
            extract_voice(c.audio, c.audio_sample_rate, self.verifier.sample_rate)
            for c in captures
        ]
        return self.enroll_waveforms(speaker_id, waves)

    def score(self, capture: SensorCapture, claimed_speaker: str) -> float:
        with self.tracer.span("dsp.extract_voice"):
            voice = extract_voice(
                capture.audio, capture.audio_sample_rate, self.verifier.sample_rate
            )
        with self.tracer.span("asv.llr_score"):
            return self.verifier.verify(claimed_speaker, voice)

    def verify(self, capture: SensorCapture, claimed_speaker: str) -> ComponentResult:
        try:
            score = self.score(capture, claimed_speaker)
        except CaptureError as exc:
            return ComponentResult(
                name="identity", passed=False, score=float("-inf"), detail=str(exc)
            )
        return self._result_from_score(score)

    def verify_batch(
        self, captures: Sequence[SensorCapture], claimed_speaker: str
    ) -> list[ComponentResult]:
        """Verify several captures claiming the same identity in one pass.

        A library kernel: one GMM/ISV likelihood evaluation over the
        stacked captures.  No serving mode calls it; every mode scores
        identity per request through :meth:`verify`.  Scores (and
        therefore results) are bitwise-equal to calling :meth:`verify`
        per capture; captures whose voice cannot be extracted degrade to
        the same rejection :meth:`verify` produces.
        """
        voices: list[np.ndarray] = []
        scorable: list[int] = []
        results: list[ComponentResult] = [None] * len(captures)  # type: ignore[list-item]
        for i, capture in enumerate(captures):
            try:
                voices.append(
                    extract_voice(
                        capture.audio,
                        capture.audio_sample_rate,
                        self.verifier.sample_rate,
                    )
                )
                scorable.append(i)
            except CaptureError as exc:
                results[i] = ComponentResult(
                    name="identity",
                    passed=False,
                    score=float("-inf"),
                    detail=str(exc),
                )
        scores = self.verifier.verify_batch(claimed_speaker, voices)
        for i, score in zip(scorable, scores):
            results[i] = self._result_from_score(score)
        return results

    def verify_multi(
        self, captures: Sequence[SensorCapture], claims: Sequence[str]
    ) -> list[ComponentResult]:
        """Verify captures claiming (possibly) different identities at once.

        The cross-speaker counterpart of :meth:`verify_batch`, and like it
        a library kernel: captures claiming different speakers share a
        single UBM likelihood pass.  Results stay bitwise-equal to per-capture
        :meth:`verify`; captures whose voice cannot be extracted degrade
        to the same rejection.
        """
        if len(captures) != len(claims):
            raise CaptureError("captures and claims must align")
        voices: list[np.ndarray] = []
        batch_claims: list[str] = []
        scorable: list[int] = []
        results: list[ComponentResult] = [None] * len(captures)  # type: ignore[list-item]
        for i, (capture, claimed) in enumerate(zip(captures, claims)):
            try:
                voices.append(
                    extract_voice(
                        capture.audio,
                        capture.audio_sample_rate,
                        self.verifier.sample_rate,
                    )
                )
                batch_claims.append(claimed)
                scorable.append(i)
            except CaptureError as exc:
                results[i] = ComponentResult(
                    name="identity",
                    passed=False,
                    score=float("-inf"),
                    detail=str(exc),
                )
        scores = self.verifier.verify_multi(batch_claims, voices)
        for i, score in zip(scorable, scores):
            results[i] = self._result_from_score(score)
        return results

    def _result_from_score(self, score: float) -> ComponentResult:
        passed = score >= self.config.asv_threshold
        return ComponentResult(
            name="identity",
            passed=passed,
            score=score,
            detail=f"LLR {score:.2f} vs threshold {self.config.asv_threshold:.2f}",
            evidence={
                "llr": score,
                "asv_threshold": self.config.asv_threshold,
            },
        )
