"""Golden-decision matrix v2: frozen outcomes for the scenario x environment grid.

Twelve scenarios in two electromagnetic environments (quiet room, desk
next to an iMac), every capture rendered with its own fixed-seed
generator so the matrix is bit-reproducible run to run:

- the original five (genuine attempt, loudspeaker replay, earphone
  replay, sound-tube replay, live human mimic);
- the remaining §III-A machine attacks (``synthesis``, ``morphing``);
- a 2023-style black-box score-descent attack on the ASV back-end
  (``adversarial``, :mod:`repro.attacks.adversarial`);
- §VII counter-measure probes: a Mu-metal-boxed loudspeaker
  (``shielded_replay``), a replay from outside the paper's operating
  distance (``far_replay``), a laptop-internal speaker
  (``laptop_replay``), and a magnet-free piezo tweeter
  (``piezo_replay``).

The ``EXPECTED`` table freezes the strict pipeline's decision *and* each
component's verdict per cell; a behaviour change anywhere in the capture
simulator, an attack implementation, the DSP front-end, or a
verification component flips a cell and fails loudly here.  The grid is
deliberately diverse in *which* stage rejects: distance (far_replay),
sound field (most near-field replays), magnetic (laptop_replay is
caught by nothing else), and identity (synthesis, morphing).

The same grid also pins the cascade contract: the early-exit engine must
reach the identical decision in every cell, may skip stages only on
rejected attempts, and its skips must be exactly the cost-order suffix
after the early-exit stage.  ``tests/test_shard_equivalence.py`` re-runs
every cell through the sequential, threaded and sharded serving modes,
so a new scenario added here is automatically pinned bitwise across all
of them.
"""

import numpy as np
import pytest

from repro.attacks import (
    HumanMimicAttack,
    MorphingAttack,
    ReplayAttack,
    ScoreDescentAttack,
    SoundTubeAttack,
    SynthesisAttack,
)
from repro.devices import Loudspeaker, get_loudspeaker
from repro.experiments.world import make_trajectory
from repro.voice.profiles import random_profile
from repro.world.environments import (
    near_computer_environment,
    quiet_room_environment,
)
from repro.world.humans import HumanSpeakerSource
from repro.world.scene import simulate_capture

ENVIRONMENTS = ("quiet_room", "near_computer")
SCENARIOS = (
    "genuine",
    "replay",
    "earphone",
    "soundtube",
    "mimic",
    "synthesis",
    "morphing",
    "adversarial",
    "shielded_replay",
    "far_replay",
    "laptop_replay",
    "piezo_replay",
)
CELLS = [(env, sc) for env in ENVIRONMENTS for sc in SCENARIOS]

#: Base seed for the per-cell generators; cell i uses BASE_SEED + i, so
#: the matrix is independent of execution order and of any other test.
BASE_SEED = 300

#: Frozen outcomes (discovered once, then pinned): decision plus each
#: component's pass/fail verdict from the strict pipeline.
EXPECTED = {
    ("quiet_room", "genuine"): {
        "accepted": True,
        "stages": {"distance": True, "soundfield": True, "magnetic": True, "identity": True},
    },
    ("quiet_room", "replay"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": False, "identity": True},
    },
    ("quiet_room", "earphone"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": True, "identity": True},
    },
    ("quiet_room", "soundtube"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": True, "identity": True},
    },
    # This mimic draw fools the ASV (identity passes) — the sound-field
    # stage catches the unfamiliar mouth geometry instead.  Defence in
    # depth working as designed; pinned because it is a real behaviour.
    ("quiet_room", "mimic"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": True, "identity": True},
    },
    # TTS and conversion artefacts are audible to the ASV too: identity
    # rejects alongside the physical stages.
    ("quiet_room", "synthesis"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": False, "identity": False},
    },
    ("quiet_room", "morphing"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": False, "identity": False},
    },
    # The score-descent audio keeps its ASV acceptance through the
    # loudspeaker (identity True) — and is rejected by the physical
    # stages anyway.  The paper's thesis against a 2023 attacker.
    ("quiet_room", "adversarial"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": False, "identity": True},
    },
    # Mu-metal shielding does NOT fully hide an LS21 at 5 cm (§VII).
    ("quiet_room", "shielded_replay"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": False, "identity": True},
    },
    # From 12 cm the sound field looks plausibly human again — the
    # distance stage is what rejects.
    ("quiet_room", "far_replay"): {
        "accepted": False,
        "stages": {"distance": False, "soundfield": True, "magnetic": False, "identity": True},
    },
    # A laptop internal speaker fools distance AND sound field: the
    # magnetometer is the only stage that catches it.
    ("quiet_room", "laptop_replay"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": True, "magnetic": False, "identity": True},
    },
    # No magnet, no magnetic anomaly — the sound field still rejects
    # the piezo tweeter's band-limited point source.
    ("quiet_room", "piezo_replay"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": True, "identity": True},
    },
    ("near_computer", "genuine"): {
        "accepted": True,
        "stages": {"distance": True, "soundfield": True, "magnetic": True, "identity": True},
    },
    ("near_computer", "replay"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": False, "identity": True},
    },
    ("near_computer", "earphone"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": True, "identity": True},
    },
    ("near_computer", "soundtube"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": True, "identity": True},
    },
    ("near_computer", "mimic"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": True, "identity": True},
    },
    ("near_computer", "synthesis"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": False, "identity": False},
    },
    ("near_computer", "morphing"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": False, "identity": False},
    },
    ("near_computer", "adversarial"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": False, "identity": True},
    },
    ("near_computer", "shielded_replay"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": False, "identity": True},
    },
    ("near_computer", "far_replay"): {
        "accepted": False,
        "stages": {"distance": False, "soundfield": True, "magnetic": False, "identity": True},
    },
    ("near_computer", "laptop_replay"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": True, "magnetic": False, "identity": True},
    },
    ("near_computer", "piezo_replay"): {
        "accepted": False,
        "stages": {"distance": True, "soundfield": False, "magnetic": True, "identity": True},
    },
}


def _environment(name):
    if name == "quiet_room":
        return quiet_room_environment(seed=0)
    return near_computer_environment(seed=0)


def _speaker(name):
    return Loudspeaker(get_loudspeaker(name), np.zeros(3))


def build_cell(world, env_name, scenario, rng):
    """(capture, claimed_speaker) for one matrix cell, rng-isolated."""
    env = _environment(env_name)
    victim = sorted(world.users)[0]
    account = world.user(victim)
    end_distance = 0.05
    if scenario == "genuine":
        waveform = world.synthesizer.synthesize_digits(
            account.profile, account.passphrase, rng
        ).waveform
        source = HumanSpeakerSource(account.profile)
        sample_rate = world.synthesizer.sample_rate
    else:
        stolen = account.enrolment_waveforms[-1]
        if scenario == "replay":
            attempt = ReplayAttack(_speaker("Logitech LS21")).prepare(
                stolen, 16000, victim
            )
        elif scenario == "earphone":
            attempt = ReplayAttack(_speaker("Apple EarPods MD827LL/A")).prepare(
                stolen, 16000, victim
            )
        elif scenario == "soundtube":
            attempt = SoundTubeAttack(_speaker("Logitech LS21")).prepare(
                stolen, 16000, victim
            )
        elif scenario == "mimic":
            attacker = random_profile("mimic_attacker", rng)
            attempt = HumanMimicAttack(attacker).prepare(
                account.enrolment_waveforms[:3], account.passphrase, victim, rng
            )
        elif scenario == "synthesis":
            attempt = SynthesisAttack(_speaker("Logitech LS21")).prepare(
                account.enrolment_waveforms[:3], account.passphrase, victim, rng
            )
        elif scenario == "morphing":
            attacker = random_profile("morph_attacker", rng)
            attempt = MorphingAttack(_speaker("Logitech LS21"), attacker).prepare(
                account.enrolment_waveforms[:3], account.passphrase, victim, rng
            )
        elif scenario == "adversarial":
            # Small query budget: the cell pins determinism and the
            # cascade outcome; the attack's convergence is pinned in
            # tests/test_adversarial.py with a full budget.
            oracle = lambda w: world.system.identity.verifier.verify(victim, w)
            attempt = ScoreDescentAttack(
                loudspeaker=_speaker("Logitech LS21"),
                epsilon=0.05,
                sigma=0.01,
                step_size=0.02,
                population=3,
                iterations=4,
                max_queries=40,
            ).prepare(
                stolen, 16000, victim,
                oracle, world.system.config.asv_threshold, rng,
            )
        elif scenario == "shielded_replay":
            attempt = ReplayAttack(_speaker("Logitech LS21").shielded()).prepare(
                stolen, 16000, victim
            )
        elif scenario == "far_replay":
            attempt = ReplayAttack(_speaker("Logitech LS21")).prepare(
                stolen, 16000, victim
            )
            end_distance = 0.12
        elif scenario == "laptop_replay":
            attempt = ReplayAttack(
                _speaker("Apple Macbook Pro A1286 internal")
            ).prepare(stolen, 16000, victim)
        elif scenario == "piezo_replay":
            attempt = ReplayAttack(
                _speaker("Murata Piezo tweeter (stand-in)")
            ).prepare(stolen, 16000, victim)
        else:  # pragma: no cover - guards new scenario names
            raise ValueError(f"unknown scenario {scenario!r}")
        source, waveform = attempt.source, attempt.waveform
        sample_rate = attempt.sample_rate
    capture = simulate_capture(
        world.phone,
        source,
        env,
        make_trajectory(end_distance),
        waveform,
        sample_rate,
        rng,
    )
    return capture, victim


@pytest.fixture(scope="module")
def golden_reports(small_world):
    """Strict + cascade reports for every cell, computed once."""
    reports = {}
    for i, (env_name, scenario) in enumerate(CELLS):
        rng = np.random.default_rng(BASE_SEED + i)
        capture, claimed = build_cell(small_world, env_name, scenario, rng)
        strict = small_world.system.verify_cascade(capture, claimed, strict=True)
        cascade = small_world.system.verify_cascade(capture, claimed, strict=False)
        reports[(env_name, scenario)] = (strict, cascade)
    return reports


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_strict_decision_matches_golden(golden_reports, cell):
    strict, _ = golden_reports[cell]
    expected = EXPECTED[cell]
    assert strict.accepted == expected["accepted"], cell
    verdicts = {name: r.passed for name, r in strict.components.items()}
    assert verdicts == expected["stages"], cell


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_cascade_agrees_with_strict(golden_reports, cell):
    strict, cascade = golden_reports[cell]
    assert cascade.decision == strict.decision, cell
    assert cascade.mode == "cascade"
    assert strict.mode == "strict"
    # Components the cascade did run scored identically to strict.
    for name, result in cascade.components.items():
        assert result.passed == strict.components[name].passed, (cell, name)
        assert result.score == pytest.approx(strict.components[name].score)


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_cascade_skips_are_a_cost_order_suffix(small_world, golden_reports, cell):
    _, cascade = golden_reports[cell]
    if not cascade.skipped:
        return
    # Skips happen only on rejections, and only as the contiguous block
    # of stages downstream of the confidently-rejecting stage.
    assert not cascade.accepted
    assert cascade.early_exit_stage is not None
    order = small_world.system.cascade_plan.order(
        list(cascade.components) + list(cascade.skipped)
    )
    exit_index = order.index(cascade.early_exit_stage)
    assert cascade.skipped == order[exit_index + 1 :]


def test_genuine_cells_accept_everywhere():
    """The matrix keeps at least one accepting cell per environment."""
    for env in ENVIRONMENTS:
        assert EXPECTED[(env, "genuine")]["accepted"]


def test_attack_cells_reject_everywhere():
    for (env, scenario), expected in EXPECTED.items():
        if scenario != "genuine":
            assert not expected["accepted"], (env, scenario)


def test_every_stage_rejects_somewhere():
    """The grid stays diverse: each component is the workhorse for at
    least one attack cell (so a silently-broken stage cannot hide behind
    the others)."""
    for stage in ("distance", "soundfield", "magnetic", "identity"):
        assert any(
            not expected["stages"][stage]
            for (_, scenario), expected in EXPECTED.items()
            if scenario != "genuine"
        ), stage


def test_laptop_replay_needs_the_magnetometer():
    """The laptop-internal cells pin the magnetometer's unique value:
    every other stage passes, so removing it would accept the attack."""
    for env in ENVIRONMENTS:
        stages = EXPECTED[(env, "laptop_replay")]["stages"]
        assert stages == {
            "distance": True,
            "soundfield": True,
            "magnetic": False,
            "identity": True,
        }
