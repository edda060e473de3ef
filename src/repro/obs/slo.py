"""Declarative service-level objectives with multi-window burn-rate alerts.

An :class:`SLObjective` names an objective (e.g. "99.9% of requests
avoid fail-closed errors") in terms of **bad-event** and **total-event**
counters that already live in the serving
:class:`~repro.server.metrics.MetricsRegistry`.  The :class:`SLOEngine`
evaluates each objective with the multi-window, multi-burn-rate policy
from the Google SRE workbook: an alert needs a *short* window (catches
the spike now) AND a *long* window (proves it is not a blip) both
burning error budget faster than the window's threshold.

    burn_rate(W) = (bad_W / total_W) / (1 - objective)

i.e. 1.0 means exactly spending the error budget; the fast **page**
pair (5 min + 1 h at 14.4x) would exhaust a 30-day budget in ~2 days,
the slow **ticket** pair (6 h + 3 d at 1.0x) flags steady leaks.

The engine is a *pure function* of a registry's counter event rings
(:meth:`~repro.server.metrics.MetricsRegistry.windowed_count`), so
evaluating the merged N-shard registry gives bit-identical alerts to a
single registry that saw every event — the parity
``tests/test_obs_slo.py`` pins as an extension of the shard-equivalence
harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.metrics import MetricsRegistry

__all__ = [
    "BurnWindow",
    "SLObjective",
    "SLOEngine",
    "DEFAULT_WINDOWS",
    "default_objectives",
]


@dataclass(frozen=True)
class BurnWindow:
    """One (short, long) window pair with its burn-rate threshold."""

    short_s: float
    long_s: float
    threshold: float
    severity: str  # "page" or "ticket"

    def __post_init__(self) -> None:
        if self.short_s <= 0 or self.long_s <= 0:
            raise ConfigurationError("window lengths must be positive")
        if self.short_s > self.long_s:
            raise ConfigurationError("short window must not exceed long")
        if self.threshold <= 0:
            raise ConfigurationError("threshold must be positive")


#: The SRE-workbook recommendation for a 30-day error budget: page on
#: fast burn (5m + 1h both >= 14.4x), ticket on slow burn (6h + 3d both
#: >= 1.0x).
DEFAULT_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow(short_s=300.0, long_s=3600.0, threshold=14.4, severity="page"),
    BurnWindow(
        short_s=21600.0, long_s=259200.0, threshold=1.0, severity="ticket"
    ),
)


@dataclass(frozen=True)
class SLObjective:
    """One objective over existing registry counters.

    ``bad_counters`` and ``total_counters`` are summed: an objective can
    pool several failure modes (e.g. fail-closed + shard errors) against
    several traffic sources without the serving path maintaining a
    dedicated pair of counters per objective.
    """

    name: str
    objective: float  # e.g. 0.999 — target success ratio
    bad_counters: Tuple[str, ...]
    total_counters: Tuple[str, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError("objective must be in (0, 1)")
        if not self.bad_counters or not self.total_counters:
            raise ConfigurationError(
                "objectives need bad and total counter names"
            )


def default_objectives(
    latency_objective: float = 0.95,
    availability_objective: float = 0.999,
    error_objective: float = 0.999,
) -> Tuple[SLObjective, ...]:
    """The gateway's stock objectives, over counters it already keeps.

    - **latency** — share of completed requests under the configured
      threshold (``GatewayConfig.slo_latency_threshold_s``; the serving
      paths bump ``slo_latency_good``/``slo_latency_bad`` as each
      request finishes).
    - **availability** — requests that neither failed closed nor died
      to a shard error.
    - **errors** — submissions that avoided protocol / identity / shard
      errors.
    """
    return (
        SLObjective(
            name="latency",
            objective=latency_objective,
            bad_counters=("slo_latency_bad",),
            total_counters=("slo_latency_good", "slo_latency_bad"),
            description="requests completing under the latency threshold",
        ),
        SLObjective(
            name="availability",
            objective=availability_objective,
            bad_counters=("requests_failed_closed", "shard_errors"),
            total_counters=(
                "requests_completed",
                "requests_failed_closed",
                "shard_errors",
            ),
            description="requests answered without failing closed",
        ),
        SLObjective(
            name="errors",
            objective=error_objective,
            bad_counters=(
                "protocol_errors",
                "identity_errors",
                "internal_errors",
                "shard_errors",
            ),
            total_counters=("requests_submitted",),
            description="submissions without protocol/component errors",
        ),
    )


@dataclass
class SLOEngine:
    """Evaluate objectives against a registry's counter event rings."""

    objectives: Tuple[SLObjective, ...] = field(
        default_factory=default_objectives
    )
    windows: Tuple[BurnWindow, ...] = DEFAULT_WINDOWS

    def evaluate(
        self, registry: "MetricsRegistry", now: Optional[float] = None
    ) -> Dict[str, Dict[str, object]]:
        """Burn rates + alert status per objective.

        ``now`` pins the evaluation instant (monotonic-clock domain) so
        single-registry vs merged-shard parity can be asserted exactly;
        live callers leave it ``None``.
        """
        report: Dict[str, Dict[str, object]] = {}
        for obj in self.objectives:
            window_rows: List[Dict[str, object]] = []
            alerting: List[str] = []
            for window in self.windows:
                short = self._burn(registry, obj, window.short_s, now)
                long = self._burn(registry, obj, window.long_s, now)
                fired = short >= window.threshold and long >= window.threshold
                if fired:
                    alerting.append(window.severity)
                window_rows.append(
                    {
                        "severity": window.severity,
                        "short_s": window.short_s,
                        "long_s": window.long_s,
                        "threshold": window.threshold,
                        "short_burn": short,
                        "long_burn": long,
                        "alerting": fired,
                    }
                )
            report[obj.name] = {
                "objective": obj.objective,
                "description": obj.description,
                "windows": window_rows,
                "alerting": alerting,
            }
        return report

    def alerts(
        self, registry: "MetricsRegistry", now: Optional[float] = None
    ) -> List[str]:
        """Flat ``"severity objective burn"`` strings for display."""
        out: List[str] = []
        for name, status in self.evaluate(registry, now=now).items():
            for row in status["windows"]:  # type: ignore[union-attr]
                if row["alerting"]:
                    out.append(
                        f"{row['severity']}: {name} burning "
                        f"{row['short_burn']:.1f}x over "
                        f"{int(row['short_s'])}s "
                        f"(threshold {row['threshold']}x)"
                    )
        return out

    def _burn(
        self,
        registry: "MetricsRegistry",
        obj: SLObjective,
        window_s: float,
        now: Optional[float],
    ) -> float:
        bad = sum(
            registry.windowed_count(name, window_s, now=now)
            for name in obj.bad_counters
        )
        total = sum(
            registry.windowed_count(name, window_s, now=now)
            for name in obj.total_counters
        )
        if total <= 0:
            return 0.0
        error_ratio = bad / total
        budget = 1.0 - obj.objective
        return error_ratio / budget
