"""Cost-ordered early-exit scheduling for the verification cascade.

The paper's pipeline is a cascade by construction — every component must
pass, so the first rejection decides the outcome.  Running the components
in *cost* order and stopping at the first **confident** rejection keeps
the final decision identical to the run-everything pipeline (ACCEPT
requires all stages to pass either way) while skipping the expensive
stages on the attacks the cheap ones already caught.

Two pieces of policy live here, applied for every serving mode by the
one request executor, :func:`repro.core.pipeline.execute`:

- a **per-stage cost estimate** (median verify latency, milliseconds,
  measured on the reference capture length) that orders the stages.  In
  this reproduction the magnetometer check is ~200x cheaper than any
  acoustic stage, and — unlike the paper's Spear deployment, where the
  GMM/ISV scoring dominated — the sound-field SVM is the *most*
  expensive stage because of its per-band filtering, so the measured
  order is magnetic → identity → distance → soundfield.  The cost table
  is data, not dogma: re-measure and override ``stage_policies`` when
  the balance shifts (e.g. a larger ASV model).
- a **confident-reject margin** per stage, in that stage's score units.
  A stage that rejects *with margin* ends the run; a marginal rejection
  keeps the remaining stages running so the report still carries every
  verdict (useful to calibration and audit), at unchanged final
  decision.  A stage that errors out scores ``-inf`` and is always a
  confident rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

from repro.core.config import DefenseConfig
from repro.core.decision import ComponentResult
from repro.errors import ConfigurationError

#: Paper order (Fig. 4) — used for strict runs and to break cost ties.
#: ``magliveness`` (the optional MagLive-style fifth stage, off by
#: default) slots after the Fig. 4 stages so the paper's ordering is
#: untouched for the four-component system.
PAPER_ORDER: Tuple[str, ...] = (
    "distance",
    "soundfield",
    "magnetic",
    "identity",
    "magliveness",
)


@dataclass(frozen=True)
class StagePolicy:
    """Scheduling policy of one verification stage."""

    name: str
    #: Prior estimate of one verification's latency (ms).  Only the
    #: *ordering* of these numbers matters to the cascade.
    cost_ms: float
    #: How far below the pass boundary (score units) a rejection must
    #: land before downstream stages are skipped.
    reject_margin: float

    def __post_init__(self) -> None:
        if self.cost_ms <= 0:
            raise ConfigurationError("cost_ms must be positive")
        if self.reject_margin < 0:
            raise ConfigurationError("reject_margin must be non-negative")


#: Measured component medians on the reference world (2 s capture,
#: 48 kHz audio, 16-component GMM): magnetic 0.2 ms, identity 9 ms,
#: distance 36 ms, soundfield 52 ms.
DEFAULT_STAGE_POLICIES: Dict[str, StagePolicy] = {
    "magnetic": StagePolicy("magnetic", cost_ms=0.2, reject_margin=0.25),
    #: The liveness correlation low-passes the capture audio once, so it
    #: costs a little more than the pure-magnetometer stage but is still
    #: orders cheaper than any acoustic stage.
    "magliveness": StagePolicy("magliveness", cost_ms=0.9, reject_margin=0.25),
    "identity": StagePolicy("identity", cost_ms=12.0, reject_margin=1.0),
    "distance": StagePolicy("distance", cost_ms=36.0, reject_margin=0.02),
    "soundfield": StagePolicy("soundfield", cost_ms=52.0, reject_margin=1.5),
}


def pass_boundary(name: str, config: DefenseConfig) -> float:
    """The score at which stage ``name`` flips from reject to pass.

    Every component scores "higher = more genuine-like", so the boundary
    is a lower bound on passing scores; the confident-reject test is
    ``score <= boundary - reject_margin``.
    """
    if name == "distance":
        return -(config.distance_threshold_m * config.distance_margin)
    if name == "magnetic":
        return -1.0
    if name == "magliveness":
        # Same normalised-strength convention as the magnetic stage:
        # score = -strength, strength >= 1 rejects.
        return -1.0
    if name == "soundfield":
        return config.soundfield_threshold
    if name == "identity":
        return config.asv_threshold
    raise ConfigurationError(f"unknown cascade stage {name!r}")


@dataclass
class CascadePlan:
    """Stage ordering + early-exit policy over a set of stage policies."""

    policies: Mapping[str, StagePolicy] = field(
        default_factory=lambda: dict(DEFAULT_STAGE_POLICIES)
    )

    def policy(self, name: str) -> StagePolicy:
        try:
            return self.policies[name]
        except KeyError:
            raise ConfigurationError(
                f"no stage policy for component {name!r}"
            ) from None

    def order(self, enabled: Iterable[str]) -> Tuple[str, ...]:
        """Enabled stages cheapest-first (paper order breaks ties)."""
        enabled = tuple(enabled)
        return tuple(
            sorted(
                enabled,
                key=lambda n: (self.policy(n).cost_ms, PAPER_ORDER.index(n)),
            )
        )

    def confident_reject(
        self, result: ComponentResult, config: DefenseConfig
    ) -> bool:
        """True when ``result`` rejects decisively enough to end the run."""
        if result.passed:
            return False
        margin = self.policy(result.name).reject_margin
        return result.score <= pass_boundary(result.name, config) - margin

    def estimated_cost_ms(self, stages: Iterable[str]) -> float:
        """Summed cost estimate of ``stages`` (for logging/benches)."""
        return float(sum(self.policy(n).cost_ms for n in stages))
