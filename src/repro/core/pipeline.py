"""The cascade defense pipeline (paper Fig. 4).

:class:`DefenseSystem` holds the trained verification components and
accepts a capture only when every component passes.  :func:`execute` is
the one request executor: every serving mode — the pipeline's own
:meth:`~DefenseSystem.verify`/:meth:`~DefenseSystem.verify_cascade`, the
sequential server, the threaded gateway and the shard workers — runs
the cascade through it, so their reports agree by construction.  Two
schedules exist (see :func:`schedule`):

- **strict** — every enabled stage in paper order (benches use this to
  collect every component's score for threshold sweeps);
- **cascade** — cost order (see :mod:`repro.core.cascade`): cheap gates
  run one at a time and a *confident* rejection skips everything
  downstream, including the ASV pass.

Both produce the same final decision — acceptance requires every stage
to pass, so skipping after a rejection can never flip the outcome.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import lockset, sanitize
from repro.asv.verifier import VerifierBackend
from repro.core.cascade import CascadePlan, stage_scope
from repro.core.config import DefenseConfig
from repro.core.decision import (
    ComponentResult,
    Decision,
    VerificationReport,
)
from repro.core.distance import DistanceVerifier
from repro.core.identity import IdentityVerifier
from repro.core.magliveness import MagneticLivenessDetector
from repro.core.magnetic import LoudspeakerDetector
from repro.core.soundfield import SoundFieldVerifier
from repro.errors import ConfigurationError
from repro.obs.trace import NULL_TRACER, Span, Tracer
from repro.world.scene import SensorCapture

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.obs.provenance import DecisionRecord

#: Pipeline order, matching Fig. 4.
COMPONENT_ORDER = ("distance", "soundfield", "magnetic", "identity")

#: Every component the system can run: the four Fig. 4 stages plus the
#: optional MagLive-style liveness stage (off by default — enabling it
#: changes decisions, so it must be an explicit deployment choice; see
#: :meth:`DefenseSystem.enable_component`).
ALL_COMPONENTS = COMPONENT_ORDER + ("magliveness",)


@dataclass
class CascadeStats:
    """Cumulative early-exit counters of one :class:`DefenseSystem`."""

    runs: Dict[str, int] = field(default_factory=dict)
    skips: Dict[str, int] = field(default_factory=dict)
    early_exits: int = 0
    verifications: int = 0

    def skip_rate(self, name: str) -> float:
        total = self.runs.get(name, 0) + self.skips.get(name, 0)
        return self.skips.get(name, 0) / total if total else 0.0


@dataclass
class SoundFieldCacheStats:
    """Hit/miss/eviction counters of the per-user sound-field model cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def snapshot(self) -> "SoundFieldCacheStats":
        return SoundFieldCacheStats(self.hits, self.misses, self.evictions)


@dataclass
class DefenseSystem:
    """Enrol/verify API over the four-component cascade.

    ``enabled_components`` allows ablation benches to drop stages; the
    full system keeps all four.
    """

    config: DefenseConfig = field(default_factory=DefenseConfig)
    backend: VerifierBackend = VerifierBackend.GMM_UBM
    asv_components: int = 32
    seed: int = 0
    enabled_components: tuple[str, ...] = COMPONENT_ORDER
    #: Capacity of the in-memory LRU of live per-user sound-field models.
    #: The authoritative fitted state lives in ``_soundfield_store`` (the
    #: stand-in for a production model store holding millions of users);
    #: only hot users keep a rehydrated verifier resident.
    soundfield_cache_capacity: int = 16
    #: Stage ordering + early-exit policy of :meth:`verify_cascade`.
    cascade_plan: CascadePlan = field(default_factory=CascadePlan)
    #: Request tracer.  The default :data:`~repro.obs.trace.NULL_TRACER`
    #: is a shared no-op; install a live one with :meth:`set_tracer` and
    #: every verification emits nested stage + DSP-kernel spans carrying
    #: the components' evidence.
    tracer: Tracer = field(default=NULL_TRACER, repr=False)
    cascade_stats: CascadeStats = field(  # guarded-by: _stats_lock
        init=False, repr=False, default_factory=CascadeStats
    )
    distance: DistanceVerifier = field(init=False, repr=False)
    #: Per-user fitted sound-field state — the reference sweep is text- and
    #: user-specific (paper Fig. 9 trains on *the user's* training data).
    _soundfield_store: Dict[str, dict] = field(  # guarded-by: _soundfield_lock
        init=False, repr=False, default_factory=dict
    )
    _soundfield_cache: "OrderedDict[str, SoundFieldVerifier]" = field(  # guarded-by: _soundfield_lock
        init=False, repr=False, default_factory=OrderedDict
    )
    soundfield_cache_stats: SoundFieldCacheStats = field(  # guarded-by: _soundfield_lock
        init=False, repr=False, default_factory=SoundFieldCacheStats
    )
    magnetic: LoudspeakerDetector = field(init=False, repr=False)
    magliveness: MagneticLivenessDetector = field(init=False, repr=False)
    identity: IdentityVerifier = field(init=False, repr=False)

    def __post_init__(self) -> None:
        unknown = set(self.enabled_components) - set(ALL_COMPONENTS)
        if unknown:
            raise ConfigurationError(f"unknown components: {sorted(unknown)}")
        if self.soundfield_cache_capacity < 1:
            raise ConfigurationError("soundfield_cache_capacity must be >= 1")
        self._soundfield_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.distance = DistanceVerifier(self.config)
        self.magnetic = LoudspeakerDetector(self.config)
        self.magliveness = MagneticLivenessDetector(self.config)
        self.identity = IdentityVerifier(
            self.config,
            backend=self.backend,
            n_components=self.asv_components,
            seed=self.seed,
        )
        self.set_tracer(self.tracer)
        lockset.register(self)

    def set_tracer(self, tracer: Tracer) -> "DefenseSystem":
        """Install a tracer on the system and every component it owns.

        Cached sound-field verifiers are updated too; verifiers
        rehydrated later inherit the tracer in :meth:`soundfield_for`.
        """
        self.tracer = tracer
        self.distance.tracer = tracer
        self.magnetic.tracer = tracer
        self.magliveness.tracer = tracer
        self.identity.tracer = tracer
        with self._soundfield_lock:
            for verifier in self._soundfield_cache.values():
                verifier.tracer = tracer
        return self

    # ------------------------------------------------------------------
    # Training / enrolment
    # ------------------------------------------------------------------
    def train_background(
        self, waveforms_by_speaker: Dict[str, Sequence[np.ndarray]]
    ) -> "DefenseSystem":
        """Train the ASV background models (done once, offline)."""
        self.identity.train_background(waveforms_by_speaker)
        return self

    def fit_soundfield(
        self,
        speaker_id: str,
        genuine_captures: Sequence[SensorCapture],
        impostor_captures: Sequence[SensorCapture],
    ) -> "DefenseSystem":
        """Train ``speaker_id``'s sound-field model (Fig. 9 training phase).

        ``impostor_captures`` are the factory non-mouth sweeps — the
        deployment recipe replays the user's enrolment audio through a
        small set of reference loudspeakers.
        """
        verifier = SoundFieldVerifier(self.config)
        verifier.fit_captures(genuine_captures, impostor_captures)
        with self._soundfield_lock:
            self._soundfield_store[speaker_id] = verifier.state_dict()
            self._cache_put_locked(speaker_id, verifier)
        return self

    def import_soundfield_state(
        self, speaker_id: str, state: dict
    ) -> "DefenseSystem":
        """Install a fitted sound-field snapshot trained elsewhere.

        Serving instances load per-user models from an external store;
        this is the ingestion side of
        :meth:`SoundFieldVerifier.state_dict`.
        """
        with self._soundfield_lock:
            self._soundfield_store[speaker_id] = state
            self._soundfield_cache.pop(speaker_id, None)
        return self

    def export_soundfield_state(self, speaker_id: str) -> dict:
        """The stored fitted snapshot of one user's sound-field model."""
        with self._soundfield_lock:
            try:
                return self._soundfield_store[speaker_id]
            except KeyError:
                raise ConfigurationError(
                    f"no sound-field model for {speaker_id!r}; call fit_soundfield"
                ) from None

    def _cache_put_locked(self, speaker_id: str, verifier: SoundFieldVerifier) -> None:
        """Insert into the LRU (lock held by caller), evicting if full."""
        verifier.tracer = self.tracer
        self._soundfield_cache[speaker_id] = verifier
        self._soundfield_cache.move_to_end(speaker_id)
        while len(self._soundfield_cache) > self.soundfield_cache_capacity:
            self._soundfield_cache.popitem(last=False)
            self.soundfield_cache_stats.evictions += 1

    def soundfield_for(self, speaker_id: str) -> SoundFieldVerifier:
        """The trained sound-field model of one user (LRU-cached).

        A hit returns the resident verifier; a miss rehydrates it from the
        stored snapshot (bitwise-equivalent scoring) and may evict the
        least recently used resident model.  Thread-safe: the serving
        gateway calls this from many request workers at once.
        """
        with self._soundfield_lock:
            cached = self._soundfield_cache.get(speaker_id)
            if cached is not None:
                self._soundfield_cache.move_to_end(speaker_id)
                self.soundfield_cache_stats.hits += 1
                return cached
            try:
                state = self._soundfield_store[speaker_id]
            except KeyError:
                raise ConfigurationError(
                    f"no sound-field model for {speaker_id!r}; call fit_soundfield"
                ) from None
            self.soundfield_cache_stats.misses += 1
            verifier = SoundFieldVerifier.from_state(self.config, state)
            self._cache_put_locked(speaker_id, verifier)
            return verifier

    def enroll(
        self,
        speaker_id: str,
        captures: Sequence[SensorCapture],
        enrolment_waveforms: Optional[Sequence[np.ndarray]] = None,
    ) -> "DefenseSystem":
        """Enroll a user's voice.

        When the enrolment-phase recordings are available (the normal
        training flow — the app records the user's samples directly), pass
        them as ``enrolment_waveforms`` (16 kHz); the ASV then adapts to
        the voice rather than to the capture rendering channel.  Without
        them, the voice is extracted from the captures.
        """
        if enrolment_waveforms is not None:
            self.identity.enroll_waveforms(speaker_id, enrolment_waveforms)
        else:
            self.identity.enroll_captures(speaker_id, captures)
        return self

    def with_config(self, config: DefenseConfig) -> "DefenseSystem":
        """Swap thresholds in place (used by adaptive calibration).

        Trained state (UBM, speaker models, sound-field SVMs) is
        preserved; only the threshold comparisons change.
        """
        self.config = config
        self.distance.config = config
        with self._soundfield_lock:
            for verifier in self._soundfield_cache.values():
                verifier.config = config
        self.magnetic.config = config
        self.magliveness.config = config
        self.identity.config = config
        return self

    def enable_component(self, name: str) -> "DefenseSystem":
        """Add one of :data:`ALL_COMPONENTS` to the enabled set.

        Idempotent; the enabled tuple keeps the canonical
        :data:`ALL_COMPONENTS` ordering so strict runs stay paper-ordered.
        Call it before building a gateway over the system: every request
        the gateway serves then sees the same component set, and a
        sharded gateway's forked shards inherit it.
        """
        if name not in ALL_COMPONENTS:
            raise ConfigurationError(f"unknown component {name!r}")
        if name not in self.enabled_components:
            wanted = set(self.enabled_components) | {name}
            self.enabled_components = tuple(
                n for n in ALL_COMPONENTS if n in wanted
            )
        return self

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def run_component(
        self,
        name: str,
        capture: SensorCapture,
        claimed_speaker: Optional[str] = None,
    ) -> ComponentResult:
        """Run one verification component outside any cascade."""
        try:
            component = STAGES[name]
        except KeyError:
            raise ConfigurationError(f"unknown component {name!r}") from None
        return sanitize.check_result(component(self, capture, claimed_speaker))

    def verify(
        self,
        capture: SensorCapture,
        claimed_speaker: Optional[str] = None,
    ) -> VerificationReport:
        """Run every enabled component over one capture, in paper order.

        ``claimed_speaker`` may be omitted when the claim-dependent
        components are disabled (machine-detection-only benches).  For
        the cost-ordered early-exit engine see :meth:`verify_cascade`.
        """
        return self._verify(capture, claimed_speaker, cascade=False)

    def verify_cascade(
        self,
        capture: SensorCapture,
        claimed_speaker: Optional[str] = None,
        strict: bool = False,
    ) -> VerificationReport:
        """Run the cost-ordered early-exit cascade over one capture.

        The schedule is :func:`schedule`'s, so the report (skip set
        included) is the one every serving mode produces for the same
        capture.  ``strict=True`` is :meth:`verify`.  Either way the run
        is counted in :attr:`cascade_stats`.
        """
        report = self._verify(capture, claimed_speaker, cascade=not strict)
        with self._stats_lock:
            stats = self.cascade_stats
            stats.verifications += 1
            for name in report.components:
                stats.runs[name] = stats.runs.get(name, 0) + 1
            for name in report.skipped:
                stats.skips[name] = stats.skips.get(name, 0) + 1
            if report.skipped:
                stats.early_exits += 1
        return report

    def _verify(
        self, capture: SensorCapture, claimed_speaker: Optional[str], cascade: bool
    ) -> VerificationReport:
        needs_claim = set(CLAIM_STAGES) & set(self.enabled_components)
        if needs_claim and claimed_speaker is None:
            raise ConfigurationError(
                "claimed_speaker required when the "
                f"{sorted(needs_claim)[0]} component runs"
            )
        attrs = {
            "claimed_speaker": claimed_speaker,
            "mode": "cascade" if cascade else "strict",
        }
        with self.tracer.span("verify", attrs=attrs) as root:
            return execute(
                self,
                capture,
                claimed_speaker,
                cascade=cascade,
                parent=root,
                tracer=self.tracer,
            )

    def decision_record(
        self,
        report: VerificationReport,
        request_id: str = "",
        trace_id: str = "",
    ) -> "DecisionRecord":
        """Audit-grade provenance of one report (see :meth:`DecisionRecord.explain`)."""
        from repro.obs.provenance import DecisionRecord

        return DecisionRecord.from_report(
            report,
            cascade_plan=self.cascade_plan,
            request_id=request_id,
            trace_id=trace_id,
        )


# ----------------------------------------------------------------------
# The request executor: one cascade for every serving mode
# ----------------------------------------------------------------------
def _claim(claimed: Optional[str]) -> str:
    if claimed is None:
        raise ConfigurationError("this component needs a claimed speaker")
    return claimed


#: The stage table: how each component scores one capture for a claim.
STAGES: Dict[
    str, Callable[[DefenseSystem, SensorCapture, Optional[str]], ComponentResult]
] = {
    "distance": lambda system, capture, _: system.distance.verify(capture),
    "soundfield": lambda system, capture, claimed: system.soundfield_for(
        _claim(claimed)
    ).verify(capture),
    "magnetic": lambda system, capture, _: system.magnetic.verify(capture),
    "identity": lambda system, capture, claimed: system.identity.verify(
        capture, _claim(claimed)
    ),
    "magliveness": lambda system, capture, _: system.magliveness.verify(capture),
}

#: Stages that score the claimed identity; without a claim they drop out.
CLAIM_STAGES = ("soundfield", "identity")

#: One stage run, ready for whichever thread picks it up.
Job = Callable[[], ComponentResult]
#: Runs independent stage jobs and returns their results by name.
FanOut = Callable[[Dict[str, Job]], Dict[str, ComponentResult]]


def run_inline(jobs: Dict[str, Job]) -> Dict[str, ComponentResult]:
    """The fan-out of the sequential pipeline: jobs in order, errors raise."""
    return {name: job() for name, job in jobs.items()}


def schedule(
    system: DefenseSystem, claimed: Optional[str], cascade: bool
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The stages one request runs, as ``(gates, tail)``.

    Gates run one at a time and a confident rejection by any of them
    skips everything after it; the tail runs through the fan-out, with
    no early exit.  Strict mode is paper order with no gates.  The
    cascade is cost order, and its two most expensive stages form the
    tail, so they overlap when the fan-out is parallel.
    """
    stages = tuple(
        name
        for name in ALL_COMPONENTS
        if name in system.enabled_components
        and (claimed is not None or name not in CLAIM_STAGES)
    )
    if not cascade:
        return (), stages
    order = system.cascade_plan.order(stages)
    gates = order[:-2] if len(order) > 2 else ()
    return gates, order[len(gates) :]


def execute(
    system: DefenseSystem,
    capture: SensorCapture,
    claimed: Optional[str],
    *,
    cascade: bool,
    fan_out: FanOut = run_inline,
    parent: Optional[Span] = None,
    tracer: Tracer = NULL_TRACER,
) -> VerificationReport:
    """Verify one capture: the Fig. 4 cascade, written once.

    Every serving mode calls this; only the detection fan-out varies,
    and the caller passes it in.  ``fan_out`` runs detection jobs
    (inline by default, or on a scheduler that folds failures into −inf
    rejections).  Identity is scored through :data:`STAGES` in the
    calling thread, after the detection fan-out.  Exceptions from the
    fan-out or the identity stage propagate.

    Each stage runs in a ``stage.<name>`` span under ``parent``, opened
    in the thread that executes it so kernel spans nest beneath, and
    inside :func:`~repro.core.cascade.stage_scope`.  Skipped stages are
    recorded as ``skipped`` span events.  The report carries the stage
    results in schedule order, the skip set and per-stage latencies.
    """
    gates, tail = schedule(system, claimed, cascade)
    latency: Dict[str, float] = {}

    def stage(name: str) -> Job:
        def run() -> ComponentResult:
            with tracer.span(f"stage.{name}", parent=parent) as span, stage_scope(name):
                t0 = time.perf_counter()
                result = STAGES[name](system, capture, claimed)
                latency[name] = time.perf_counter() - t0
                if tracer.enabled:
                    span.set_attrs(
                        {
                            "passed": result.passed,
                            "score": result.score,
                            "detail": result.detail,
                            "evidence": dict(result.evidence),
                        }
                    )
                    if result.score == float("-inf"):
                        span.status = "error"
            return result

        return run

    results: Dict[str, ComponentResult] = {}
    early_exit: Optional[str] = None
    for name in gates:
        job = stage(name)
        results[name] = job() if name == "identity" else fan_out({name: job})[name]
        if system.cascade_plan.confident_reject(results[name], system.config):
            early_exit = name
            break
    order = gates + tail
    skipped = order[len(results) :] if early_exit is not None else ()
    if early_exit is None:
        detection = {name: stage(name) for name in tail if name != "identity"}
        if detection:
            results.update(fan_out(detection))
        if "identity" in tail:
            results["identity"] = stage("identity")()
    results = {name: results[name] for name in order if name in results}
    sanitize.check_results(results)
    decision = (
        Decision.ACCEPT if all(r.passed for r in results.values()) else Decision.REJECT
    )
    if tracer.enabled:
        for name in skipped:
            tracer.event(
                f"stage.{name}",
                parent=parent,
                status="skipped",
                attrs={
                    "skip_reason": f"upstream stage {early_exit!r} rejected confidently",
                    "cost_saved_ms": system.cascade_plan.estimated_cost_ms((name,)),
                },
            )
        if parent is not None:
            parent.set_attr("decision", decision.value)
            if early_exit is not None:
                parent.set_attr("early_exit_stage", early_exit)
    return VerificationReport(
        decision=decision,
        components=results,
        claimed_speaker=claimed,
        mode="cascade" if cascade else "strict",
        skipped=skipped,
        early_exit_stage=early_exit,
        stage_latency_s=dict(latency),
    )
