"""Strict vs cascade pipeline latency (ISSUE 3 acceptance bench).

Runs the same scenario set — genuine attempts plus machine attacks the
cheap stages catch — through ``DefenseSystem.verify_cascade`` in strict
and cascade mode, asserts the decisions agree on every capture, and
requires the cascade to cut the *median* latency of rejected machine
attacks by at least 2x.  Numbers land in ``BENCH_pipeline.json`` via the
perf-regression harness so CI can diff them against the committed
baseline.
"""

import time

import numpy as np

from conftest import emit
from harness import write_bench

from repro.attacks import ReplayAttack, SoundTubeAttack
from repro.devices import Loudspeaker, get_loudspeaker
from repro.experiments.world import attack_capture, genuine_capture

#: Timing repetitions per capture; the best of the repeats de-noises the
#: scheduler/GC jitter of a single run.
REPEATS = 3

#: Genuine attempts timed, round-robin over the enrolled users.
GENUINE_CAPTURES = 12


#: Replay loudspeakers, one per Table IV device class the paper sweeps.
#: Conventional speakers (PC, floor, bluetooth) carry strong permanent
#: magnets the 0.2 ms magnetometer stage catches; the earphone's magnet
#: is ~40x weaker, so that replay survives to the sound-field stage and
#: keeps a worst-case (no early exit possible) scenario in the set.
REPLAY_SPEAKERS = (
    "Logitech LS21",
    "Pioneer SP-FS52",
    "Sony SRSX2/BLK",
    "Apple EarPods MD827LL/A",
)


def _scenarios(world):
    """(label, capture, claimed, is_attack) scenario rows."""
    users = sorted(world.users)
    victim = users[0]
    stolen = world.user(victim).enrolment_waveforms[-1]
    rows = []
    for i in range(GENUINE_CAPTURES):
        user_id = users[i % len(users)]
        rows.append(
            (f"genuine_{i}", genuine_capture(world, user_id, 0.05), user_id, False)
        )
    for name in REPLAY_SPEAKERS:
        speaker = Loudspeaker(get_loudspeaker(name), np.zeros(3))
        attempt = ReplayAttack(speaker).prepare(stolen, 16000, victim)
        rows.append(
            (
                f"replay_{name.split()[0].lower()}",
                attack_capture(world, attempt, 0.05),
                victim,
                True,
            )
        )
    tube = SoundTubeAttack(Loudspeaker(get_loudspeaker("Logitech LS21"), np.zeros(3)))
    attempt = tube.prepare(stolen, 16000, victim)
    rows.append(("soundtube", attack_capture(world, attempt, 0.05), victim, True))
    return rows


def _time_verify(system, capture, claimed, strict):
    best = float("inf")
    report = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        report = system.verify_cascade(capture, claimed, strict=strict)
        best = min(best, time.perf_counter() - t0)
    return best, report


def test_cascade_vs_strict_latency(bench_world):
    system = bench_world.system
    rows = _scenarios(bench_world)

    strict_s, cascade_s = {}, {}
    for label, capture, claimed, _ in rows:
        strict_s[label], strict_report = _time_verify(
            system, capture, claimed, strict=True
        )
        cascade_s[label], cascade_report = _time_verify(
            system, capture, claimed, strict=False
        )
        # The whole point: same decision, every scenario.
        assert cascade_report.decision == strict_report.decision, label
        # Skips only ever happen on rejected attempts.
        if cascade_report.skipped:
            assert not cascade_report.accepted

    attack_labels = [label for label, _, _, is_attack in rows if is_attack]
    genuine_labels = [label for label, _, _, is_attack in rows if not is_attack]
    strict_attack = float(np.median([strict_s[l] for l in attack_labels]))
    cascade_attack = float(np.median([cascade_s[l] for l in attack_labels]))
    speedup = strict_attack / cascade_attack

    stats = system.cascade_stats
    skip_rates = {
        name: stats.skip_rate(name)
        for name in ("distance", "soundfield", "magnetic", "identity")
    }

    emit(
        "Strict vs cascade pipeline latency",
        [
            f"rejected attacks: strict median {strict_attack * 1e3:7.1f} ms   "
            f"cascade median {cascade_attack * 1e3:7.1f} ms   "
            f"({speedup:.1f}x faster)",
            *(
                f"{label:16s}: strict {strict_s[label] * 1e3:7.1f} ms   "
                f"cascade {cascade_s[label] * 1e3:7.1f} ms"
                for label, _, _, _ in rows
            ),
            f"stage skip rates: {skip_rates}",
        ],
    )

    write_bench(
        "pipeline",
        latencies={
            "strict_rejected": [strict_s[l] for l in attack_labels],
            "cascade_rejected": [cascade_s[l] for l in attack_labels],
            "strict_genuine": [strict_s[l] for l in genuine_labels],
            "cascade_genuine": [cascade_s[l] for l in genuine_labels],
        },
        stage_skip_rates=skip_rates,
        counters={
            "early_exits": stats.early_exits,
            "verifications": stats.verifications,
        },
        extra={"rejected_attack_speedup": speedup},
    )

    # ISSUE 3 acceptance: >= 2x median latency reduction on rejected
    # machine-attack scenarios (measured ~20-50x; 2x is the safe floor).
    assert speedup >= 2.0
