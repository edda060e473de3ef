"""Defense-system configuration and thresholds.

The paper sets all four components' thresholds empirically: the distance
threshold ``Dt = 6 cm`` (from Fig. 12), a magnetic strength threshold
``Mt`` and changing-rate threshold ``βt`` (from the loudspeaker
measurements), and the ASV acceptance threshold.  The defaults below are
the values our simulated evaluation selects by the same procedure (the
Fig. 12 bench re-derives ``Dt``).

:class:`GatewayConfig` — the serving-tier knobs — lives here too, next
to the decision thresholds it serves: both are part of a deployment's
frozen configuration, and both travel across process boundaries when the
sharded gateway spawns or replaces shard workers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DefenseConfig:
    """All tunable parameters of the defense pipeline."""

    #: Sound source distance threshold ``Dt`` (m).  The magnetometer can
    #: only out a loudspeaker within a few centimetres, so attempts whose
    #: recovered final distance exceeds this are rejected outright.
    distance_threshold_m: float = 0.06

    #: Magnetic anomaly threshold ``Mt`` (µT): peak |B| deviation from the
    #: capture's ambient baseline above which a loudspeaker is declared.
    magnetic_threshold_ut: float = 6.0

    #: Magnetic changing-rate threshold ``βt`` (µT/s).
    rate_threshold_ut_s: float = 60.0

    #: ASV log-likelihood-ratio acceptance threshold.
    asv_threshold: float = 0.5

    #: Decision threshold for the sound-field component (scores below
    #: this are rejected as non-mouth sources).  Slightly negative: the
    #: genuine cluster sits several units positive, non-mouth sources
    #: several units negative, and the small negative margin absorbs
    #: genuine outliers without admitting any observed attack class.
    soundfield_threshold: float = -1.5

    #: Number of angle bins for sound-field features.
    soundfield_angle_bins: int = 8

    #: Tolerance multiplier applied to the recovered distance before the
    #: ``Dt`` comparison (absorbs the ~1 cm ranging noise; 1.0 = strict).
    #: 1.4 keeps genuine rejections rare while still forcing attackers
    #: inside the magnetometer's reliable range.
    distance_margin: float = 1.4

    #: MagLive-style liveness (arxiv 2404.01106): |Pearson r| between the
    #: detrended magnetometer magnitude and the detrended audio playback
    #: envelope above which a voice coil is declared.  A loudspeaker's
    #: coil drive *is* the playback envelope, so the recorded field
    #: fluctuation tracks the recorded audio envelope; a human source has
    #: no such coupling.  Only consulted by the optional fifth cascade
    #: component (off by default).
    magliveness_corr_threshold: float = 0.35

    #: Noise-floor gate of the magliveness correlation (µT RMS of the
    #: detrended field magnitude).  Below this the fluctuation is ambient
    #: noise and its correlation with the envelope is spurious, so the
    #: component reports zero detection strength.
    magliveness_min_fluctuation_ut: float = 0.02

    def __post_init__(self) -> None:
        if self.distance_threshold_m <= 0:
            raise ConfigurationError("distance_threshold_m must be positive")
        if self.magnetic_threshold_ut <= 0 or self.rate_threshold_ut_s <= 0:
            raise ConfigurationError("magnetic thresholds must be positive")
        if self.soundfield_angle_bins < 2:
            raise ConfigurationError("need at least 2 angle bins")
        if self.distance_margin <= 0:
            raise ConfigurationError("distance_margin must be positive")
        if not 0.0 < self.magliveness_corr_threshold <= 1.0:
            raise ConfigurationError(
                "magliveness_corr_threshold must be in (0, 1]"
            )
        if self.magliveness_min_fluctuation_ut < 0:
            raise ConfigurationError(
                "magliveness_min_fluctuation_ut must be non-negative"
            )

    def with_sensitivity(self, scale: float) -> "DefenseConfig":
        """Scale the magnetometer thresholds (adaptive thresholding §VII).

        ``scale > 1`` desensitises the detector — appropriate in high-EMF
        environments where ambient fluctuation would otherwise trip it.
        """
        if scale <= 0:
            raise ConfigurationError("sensitivity scale must be positive")
        return replace(
            self,
            magnetic_threshold_ut=self.magnetic_threshold_ut * scale,
            rate_threshold_ut_s=self.rate_threshold_ut_s * scale,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-stable form (audit provenance, cross-process handoff)."""
        return dict(asdict(self))

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "DefenseConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are ignored so newer audit rows stay loadable by
        older code; validation re-runs in ``__post_init__``.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in row.items() if k in known})


@dataclass
class GatewayConfig:
    """Knobs of the concurrent serving path (threaded and sharded).

    ``shards=0`` (the default) keeps the single-process thread-pool
    gateway.  ``shards=N`` with ``N >= 1`` selects the shared-nothing
    process-shard tier: requests are routed by consistent hash on the
    claimed speaker id to one of ``N`` forked worker processes, each
    owning its slice of the per-user sound-field LRU and ASV traffic.
    """

    #: Request-level concurrency: how many requests are in flight at once.
    #: The shared component scheduler gets three threads per request
    #: worker (one per machine-detection component).
    request_workers: int = 4
    #: Bound of the admission queue; a full queue rejects (backpressure).
    max_queue: int = 64
    #: Per-component execution budget; ``None`` waits forever.
    component_timeout_s: Optional[float] = 30.0
    #: Extra attempts for a component job that *crashed* (timeouts are
    #: never retried — see the scheduler docs).
    component_retries: int = 1
    #: Serve with the cost-ordered early-exit cascade: cheap stages run
    #: first and a confident rejection skips everything downstream
    #: (including identity scoring).  Decisions match the strict path —
    #: ACCEPT still requires every enabled component to pass — but
    #: rejected requests return after the cheap stages.  ``False`` keeps
    #: the run-everything behaviour bit-for-bit.
    cascade: bool = False
    #: Number of shared-nothing shard processes (0 = threaded gateway).
    shards: int = 0
    #: Enable in-band chaos hooks (``__chaos_exit__`` request metadata
    #: kills the handling shard mid-request).  Test-only; never enable
    #: in production configs.
    chaos_hooks: bool = False
    #: Latency SLO boundary: a request completing faster counts as a
    #: good event, slower as a bad one (``slo_latency_good``/``_bad``
    #: counters, consumed by :mod:`repro.obs.slo`'s burn-rate engine).
    slo_latency_threshold_s: float = 0.25

    def __post_init__(self) -> None:
        if self.request_workers <= 0:
            raise ConfigurationError("request_workers must be positive")
        if self.max_queue <= 0:
            raise ConfigurationError("max_queue must be positive")
        if self.component_timeout_s is not None and self.component_timeout_s <= 0:
            raise ConfigurationError("component_timeout_s must be positive")
        if self.component_retries < 0:
            raise ConfigurationError("component_retries must be >= 0")
        if self.shards < 0:
            raise ConfigurationError("shards must be >= 0")
        if self.slo_latency_threshold_s <= 0:
            raise ConfigurationError(
                "slo_latency_threshold_s must be positive"
            )
