"""Fig. 15 — authentication time comparison.

Times three authentication schemes end-to-end through the client/server
prototype:

- **ours** — the full four-component pipeline;
- **voiceprint** — the ASV-only scheme (the WeChat voice print role);
- **password** — a credential check whose cost is typing time plus a
  trivial server lookup.

The paper's result: the full system is under a second slower than voice
print alone, and both are comparable to passwords once interaction time
is included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.pipeline import DefenseSystem
from repro.experiments.world import ExperimentWorld, genuine_capture
from repro.server.backend import VerificationServer
from repro.server.client import MobileClient, TimingReport, summarize_trials

#: Mean time a user needs to type a password on a phone keyboard
#: (entry-speed literature puts 8-char passwords around 3 s).
PASSWORD_TYPING_S = 2.8

#: Server-side cost of a credential hash check.
PASSWORD_SERVER_S = 0.002


@dataclass(frozen=True)
class Fig15Row:
    """Mean per-trial authentication time for one scheme."""

    scheme: str
    trials: int
    mean_total_s: float
    mean_server_s: float
    success_rate: float


def _run_scheme(
    world: ExperimentWorld,
    system: DefenseSystem,
    trials: int,
) -> Dict[str, float]:
    server = VerificationServer(system)
    client = MobileClient(server)
    user_id = sorted(world.users)[0]
    reports: List[TimingReport] = []
    try:
        for _ in range(trials):
            capture = genuine_capture(world, user_id, 0.05)
            reports.append(client.authenticate(capture, user_id))
    finally:
        server.close()
    summary = summarize_trials(reports)
    summary["mean_server_s"] = float(np.mean([r.server_s for r in reports]))
    return summary


def run_fig15(world: ExperimentWorld, trials: int = 10) -> List[Fig15Row]:
    """Time all three schemes with the same genuine workload."""
    rows: List[Fig15Row] = []

    ours = _run_scheme(world, world.system, trials)
    rows.append(
        Fig15Row(
            scheme="ours",
            trials=trials,
            mean_total_s=ours["mean_s"],
            mean_server_s=ours["mean_server_s"],
            success_rate=ours["success_rate"],
        )
    )

    voiceprint_system = DefenseSystem(
        config=world.config, enabled_components=("identity",), asv_components=16
    )
    voiceprint_system.identity = world.system.identity
    vp = _run_scheme(world, voiceprint_system, trials)
    rows.append(
        Fig15Row(
            scheme="voiceprint",
            trials=trials,
            mean_total_s=vp["mean_s"],
            mean_server_s=vp["mean_server_s"],
            success_rate=vp["success_rate"],
        )
    )

    password_totals = []
    for _ in range(trials):
        t0 = time.perf_counter()
        # Hash-compare placeholder for the credential check.
        _ = hash(("user", "correct-horse-battery"))
        server_s = (time.perf_counter() - t0) + PASSWORD_SERVER_S
        password_totals.append(PASSWORD_TYPING_S + server_s)
    rows.append(
        Fig15Row(
            scheme="password",
            trials=trials,
            mean_total_s=float(np.mean(password_totals)),
            mean_server_s=PASSWORD_SERVER_S,
            success_rate=1.0,
        )
    )
    return rows
