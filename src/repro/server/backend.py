"""The verification server backend.

Wraps a trained :class:`repro.core.pipeline.DefenseSystem` behind the
wire protocol: decode request → :func:`~repro.core.pipeline.execute`
with the machine-detection components fanned out on the scheduler →
encode decision.  The "network" is an in-process call, which keeps the
Fig. 15 timing bench about compute rather than transport (the paper
likewise redirected all traffic to a local server to minimise network
influence).

The module-level helpers are shared with the concurrent
:class:`~repro.server.gateway.Gateway` and the shard workers:
:func:`scheduler_fan_out` (the fail-closed scheduler fan-out),
:func:`decision_fields` (a report's decision-frame payload) and
:func:`observe_request` (the per-request metrics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.decision import ComponentResult, VerificationReport
from repro.core.pipeline import DefenseSystem, FanOut, Job, execute
from repro.server.blas import BlasThreadHold
from repro.server.metrics import MetricsRegistry
from repro.server.protocol import decode_request_full, encode_decision
from repro.server.scheduler import JobScheduler

__all__ = [
    "VerificationServer",
    "decision_fields",
    "observe_request",
    "scheduler_fan_out",
]


def scheduler_fan_out(
    scheduler: JobScheduler,
    timeout_s: Optional[float],
    retries: int,
    metrics: Optional[MetricsRegistry] = None,
) -> FanOut:
    """A fan-out that runs stage jobs on ``scheduler`` and fails closed.

    A crashed or timed-out component degrades to a scored rejection —
    the safe default for an authentication system.  Timeouts, crash
    retries and failed stages are counted in ``metrics`` when one is
    given.
    """

    def fan_out(jobs: Dict[str, Job]) -> Dict[str, ComponentResult]:
        results: Dict[str, ComponentResult] = {}
        for name, job in scheduler.run_all(
            jobs, timeout_s=timeout_s, retries=retries
        ).items():
            if metrics is not None:
                if job.timed_out:
                    metrics.increment("component_timeouts")
                if job.attempts > 1:
                    metrics.increment("component_retries", job.attempts - 1)
                if not job.ok:
                    metrics.increment(f"stage_errors_{name}")
            results[name] = (
                job.value
                if job.ok
                else ComponentResult(
                    name=name,
                    passed=False,
                    score=float("-inf"),
                    detail=f"component error: {job.error}",
                )
            )
        return results

    return fan_out


def decision_fields(
    report: VerificationReport,
) -> Tuple[Dict[str, Tuple[bool, float, str]], Dict[str, Dict[str, float]]]:
    """``(component_results, evidence)`` of a report's decision frame."""
    payload = {
        name: (r.passed, r.score, r.detail) for name, r in report.components.items()
    }
    evidence = {name: dict(r.evidence) for name, r in report.components.items()}
    return payload, evidence


def observe_request(
    metrics: MetricsRegistry,
    report: VerificationReport,
    decode_s: float,
    execute_s: float,
    encode_s: float,
    slo_threshold_s: float,
    exemplar: Optional[str] = None,
) -> None:
    """Record one served request: phase or stage latencies, the cascade's
    skips, ``total_s`` with its latency-SLO verdict, and the outcome."""
    metrics.observe("decode_s", decode_s)
    if report.mode == "cascade":
        for name, seconds in report.stage_latency_s.items():
            metrics.observe(f"stage_{name}_s", seconds)
        for name in report.skipped:
            metrics.increment(f"stage_skipped_{name}")
        if report.skipped:
            metrics.increment("cascade_early_exits")
    else:
        identity_s = report.stage_latency_s.get("identity", 0.0)
        metrics.observe("detection_s", execute_s - identity_s)
        metrics.observe("identity_s", identity_s)
        metrics.observe("encode_s", encode_s)
    total_s = decode_s + execute_s + encode_s
    metrics.observe("total_s", total_s, exemplar=exemplar)
    metrics.increment(
        "slo_latency_good" if total_s < slo_threshold_s else "slo_latency_bad"
    )
    metrics.increment("requests_completed")
    metrics.increment("accepted" if report.accepted else "rejected")


@dataclass
class VerificationServer:
    """In-process stand-in for the paper's Tornado backend.

    Handles exactly one request at a time, in strict mode, with identity
    scored directly; the concurrent serving path is
    :class:`~repro.server.gateway.Gateway`, which produces bitwise-equal
    decisions for the same frames.  Like the gateways, it holds BLAS at
    one thread from construction to :meth:`close`
    (:mod:`repro.server.blas`).
    """

    system: DefenseSystem
    scheduler: JobScheduler = field(default_factory=lambda: JobScheduler(workers=3))
    #: Per-component execution budget (None = wait forever, the historical
    #: behaviour) and crash-retry budget, passed through to the scheduler.
    component_timeout_s: Optional[float] = None
    component_retries: int = 0
    _blas: BlasThreadHold = field(
        default_factory=BlasThreadHold, init=False, repr=False, compare=False
    )

    def handle(self, request_frame: bytes) -> bytes:
        """Process one verification request frame; returns a decision frame."""
        capture, claimed, request_id = decode_request_full(request_frame)
        report = execute(
            self.system,
            capture,
            claimed,
            cascade=False,
            fan_out=scheduler_fan_out(
                self.scheduler, self.component_timeout_s, self.component_retries
            ),
        )
        payload, evidence = decision_fields(report)
        return encode_decision(
            report.accepted, payload, request_id=request_id, evidence=evidence
        )

    def close(self) -> None:
        self.scheduler.shutdown()
        self._blas.release()
