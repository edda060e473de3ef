"""The mobile-app side of the prototype, plus authentication timing.

:class:`MobileClient` packs a capture into a request frame, submits it to
any verification handler (the sequential
:class:`~repro.server.backend.VerificationServer` or the concurrent
:class:`~repro.server.gateway.Gateway`), and parses the decision —
measuring the round trip the way the paper's Fig. 15 experiment does
("we stop the time counter only when the authentication result is sent
back").

A simulated network latency can be injected to model the local-server
redirection of the paper's setup.  :class:`LoadGenerator` drives a
gateway from many client threads at once to measure the concurrent
serving path's throughput and per-stage latency.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.server.protocol import (
    decode_decision,
    decode_telemetry_response,
    encode_request,
    encode_telemetry_request,
)
from repro.world.scene import SensorCapture


class VerificationHandler(Protocol):
    """Anything that turns a request frame into a decision frame."""

    def handle(self, request_frame: bytes) -> bytes: ...


@dataclass(frozen=True)
class TimingReport:
    """Round-trip timing of one authentication attempt (seconds)."""

    capture_s: float
    encode_s: float
    network_s: float
    server_s: float
    decode_s: float
    accepted: bool

    @property
    def total_s(self) -> float:
        """Interaction-to-decision time (what Fig. 15 plots)."""
        return (
            self.capture_s
            + self.encode_s
            + self.network_s
            + self.server_s
            + self.decode_s
        )


@dataclass
class MobileClient:
    """Client endpoint bound to one verification handler."""

    server: VerificationHandler
    network_latency_s: float = 0.012

    def authenticate(
        self,
        capture: SensorCapture,
        claimed_speaker: Optional[str],
        interaction_time_s: Optional[float] = None,
    ) -> TimingReport:
        """Submit one capture and time every stage of the round trip.

        ``interaction_time_s`` is the user-facing recording time (the
        capture's duration by default) — it dominates the total, exactly
        as in the paper's comparison against WeChat voice print.
        """
        capture_s = (
            capture.duration_s if interaction_time_s is None else interaction_time_s
        )
        t0 = time.perf_counter()
        request = encode_request(capture, claimed_speaker)
        t_encoded = time.perf_counter()
        server_frame = self.server.handle(request)
        t_served = time.perf_counter()
        decision = decode_decision(server_frame)
        t_done = time.perf_counter()
        return TimingReport(
            capture_s=capture_s,
            encode_s=t_encoded - t0,
            network_s=2.0 * self.network_latency_s,
            server_s=t_served - t_encoded,
            decode_s=t_done - t_served,
            accepted=bool(decision["accepted"]),
        )

    def scrape_metrics(
        self,
        sections: Tuple[str, ...] = ("summary", "prometheus"),
    ) -> dict:
        """Fetch the serving side's telemetry over the wire protocol.

        Sends a telemetry-request frame through the same handler used for
        verification (the gateway answers it without queueing) and
        returns the section name → value mapping; the ``"prometheus"``
        section is the text exposition, parseable with
        :func:`repro.obs.exporters.parse_prometheus`.  A response whose
        ``telemetry`` field is not an object raises
        :class:`~repro.errors.ProtocolError`.
        """
        response = self.server.handle(encode_telemetry_request(sections))
        telemetry = decode_telemetry_response(response).get("telemetry", {})
        if not isinstance(telemetry, dict):
            raise ProtocolError("telemetry response field is not an object")
        return dict(telemetry)


@dataclass
class LoadGenerator:
    """Concurrent client fleet for gateway load tests.

    Spawns one thread per in-flight request, each running a full
    :class:`MobileClient` round trip; returns the reports in submission
    order plus the burst's wall-clock time.
    """

    handler: VerificationHandler
    network_latency_s: float = 0.012

    def run(
        self,
        workload: Sequence[Tuple[SensorCapture, Optional[str]]],
    ) -> Tuple[List[TimingReport], float]:
        """Fire every (capture, claimed) pair concurrently; join them all."""
        client = MobileClient(self.handler, self.network_latency_s)
        reports: List[Optional[TimingReport]] = [None] * len(workload)
        errors: List[BaseException] = []

        def one(i: int, capture: SensorCapture, claimed: Optional[str]) -> None:
            try:
                reports[i] = client.authenticate(capture, claimed)
            except BaseException as exc:  # noqa: BLE001 - re-raised after join
                errors.append(exc)

        threads = [
            threading.Thread(target=one, args=(i, capture, claimed), daemon=True)
            for i, (capture, claimed) in enumerate(workload)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - t0
        if errors:
            raise errors[0]
        return [r for r in reports if r is not None], wall_s


def summarize_trials(reports: List[TimingReport]) -> dict:
    """Mean/percentile totals for a batch of trials (Fig. 15 rows)."""
    totals = np.array([r.total_s for r in reports])
    return {
        "trials": len(reports),
        "mean_s": float(totals.mean()),
        "p50_s": float(np.percentile(totals, 50)),
        "p90_s": float(np.percentile(totals, 90)),
        "p95_s": float(np.percentile(totals, 95)),
        "success_rate": float(np.mean([r.accepted for r in reports])),
    }
