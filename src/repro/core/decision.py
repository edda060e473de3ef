"""Decision types: per-component results and the Table III categories."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple


class Decision(enum.Enum):
    """Final pipeline output."""

    ACCEPT = "accept"
    REJECT = "reject"


class DecisionCategory(enum.Enum):
    """The four outcome categories of Table III."""

    CORRECT_ACCEPTANCE = "correct_acceptance"
    FALSE_REJECTION = "false_rejection"
    FALSE_ACCEPTANCE = "false_acceptance"
    CORRECT_REJECTION = "correct_rejection"


def categorize(decision: Decision, genuine: bool) -> DecisionCategory:
    """Map a decision plus ground truth onto Table III."""
    if genuine:
        return (
            DecisionCategory.CORRECT_ACCEPTANCE
            if decision is Decision.ACCEPT
            else DecisionCategory.FALSE_REJECTION
        )
    return (
        DecisionCategory.FALSE_ACCEPTANCE
        if decision is Decision.ACCEPT
        else DecisionCategory.CORRECT_REJECTION
    )


@dataclass(frozen=True)
class ComponentResult:
    """Outcome of one verification component.

    ``score`` is continuous ("higher is more genuine-like" for every
    component, so benches can sweep thresholds); ``passed`` is the
    thresholded decision the cascade uses.  ``evidence`` is the
    structured decision provenance — the measured values next to the
    paper thresholds they were compared against (e.g. the estimated
    distance vs ``Dt``, the magnetometer peak vs ``Mt``) — consumed by
    :class:`repro.obs.provenance.DecisionRecord` and the audit log.
    """

    name: str
    passed: bool
    score: float
    detail: str = ""
    evidence: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationReport:
    """Full pipeline output for one attempt.

    ``mode`` records which engine produced the report (``"strict"`` runs
    every enabled component; ``"cascade"`` may stop early).  ``skipped``
    lists components the cascade never ran, ``early_exit_stage`` the
    component whose confident rejection ended the run, and
    ``stage_latency_s`` per-component wall time when the engine timed the
    stages.  Strict reports leave the cascade fields at their defaults.
    """

    decision: Decision
    components: Dict[str, ComponentResult] = field(default_factory=dict)
    claimed_speaker: Optional[str] = None
    mode: str = "strict"
    skipped: Tuple[str, ...] = ()
    early_exit_stage: Optional[str] = None
    stage_latency_s: Mapping[str, float] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return self.decision is Decision.ACCEPT

    def component(self, name: str) -> ComponentResult:
        return self.components[name]

    def failed_components(self) -> list[str]:
        """Names of components that rejected, in evaluation order."""
        return [name for name, r in self.components.items() if not r.passed]
