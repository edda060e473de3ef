"""Fig. 12 — impact of sound source distance, with and without shielding.

For each source distance the runner collects genuine attempts from the
enrolled users and machine replay attacks through a spread of Table IV
loudspeakers (optionally inside a Mu-metal shield), then reports
FAR/FRR/EER exactly as the figure does.  Expected shape: all three rates
are zero at ≤ 6 cm; FAR rises with distance as the magnet's field decays
(faster when shielded); FRR stays low in the quiet room.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.attacks.replay import ReplayAttack
from repro.core.config import DefenseConfig
from repro.devices.loudspeaker import Loudspeaker
from repro.devices.registry import get_loudspeaker
from repro.experiments.runner import TrialOutcome, evaluate_outcomes
from repro.experiments.world import ExperimentWorld, attack_capture, genuine_capture
from repro.physics.magnetics import MuMetalShield
from repro.world.environments import Environment

#: Paper's tested distances (cm → m): a 2 cm grid from ``Dt − 2 cm`` to
#: ``Dt + 8 cm``, derived from the configured threshold so re-tuning
#: ``Dt`` keeps the sweep centred on the decision boundary.
_DT_M = DefenseConfig().distance_threshold_m
DISTANCES_M = tuple(round(_DT_M + 0.02 * k, 2) for k in range(-1, 5))

#: A spread of Table IV loudspeakers across device classes.
ATTACK_SPEAKERS = (
    "Logitech LS21",
    "Bose SoundLink Mini PINK",
    "Pioneer SP-FS52",
    "Apple Macbook Pro A1286 internal",
    "Apple iPhone 5S A1533 internal",
    "Apple EarPods MD827LL/A",
)


@dataclass(frozen=True)
class DistanceRow:
    """One bar group of Fig. 12."""

    distance_cm: float
    far_pct: float
    frr_pct: float
    eer_pct: float


def run_distance_experiment(
    world: ExperimentWorld,
    distances: Sequence[float] = DISTANCES_M,
    shield: Optional[MuMetalShield] = None,
    genuine_per_distance: int = 6,
    attacks_per_speaker: int = 1,
    environment: Optional[Environment] = None,
    speaker_names: Sequence[str] = ATTACK_SPEAKERS,
    include_distance_gate: bool = False,
) -> List[DistanceRow]:
    """FAR/FRR/EER versus source distance (Fig. 12a or, shielded, 12b).

    The distance gate is disabled by default: this very experiment is
    what the paper uses to *choose* ``Dt`` ("According to the evaluation
    results, we set the sound source distance threshold Dt to 6 cm"), so
    the detection components are measured across all distances first.
    """
    user_ids = sorted(world.users)
    original_components = world.system.enabled_components
    if not include_distance_gate:
        world.system.enabled_components = tuple(
            c for c in original_components if c != "distance"
        )
    rows: List[DistanceRow] = []
    for distance in distances:
        outcomes: List[TrialOutcome] = []
        for i in range(genuine_per_distance):
            user_id = user_ids[i % len(user_ids)]
            capture = genuine_capture(world, user_id, distance, environment)
            report = world.system.verify(capture, user_id)
            outcomes.append(TrialOutcome(genuine=True, report=report))
        for name in speaker_names:
            speaker = Loudspeaker(get_loudspeaker(name), np.zeros(3))
            if shield is not None:
                speaker = speaker.shielded(shield)
            for j in range(attacks_per_speaker):
                user_id = user_ids[j % len(user_ids)]
                stolen = world.user(user_id).enrolment_waveforms[-1]
                attempt = ReplayAttack(speaker).prepare(
                    stolen, world.synthesizer.sample_rate, user_id
                )
                capture = attack_capture(world, attempt, distance, environment)
                report = world.system.verify(capture, user_id)
                outcomes.append(TrialOutcome(genuine=False, report=report))
        result = evaluate_outcomes(outcomes, world.config)
        pct = result.as_percent()
        rows.append(
            DistanceRow(
                distance_cm=distance * 100.0,
                far_pct=pct["far_pct"],
                frr_pct=pct["frr_pct"],
                eer_pct=pct["eer_pct"],
            )
        )
    world.system.enabled_components = original_components
    return rows
