"""Operational-telemetry tier cost and decision stability (ISSUE 9).

Every gateway already runs the baseline telemetry (SLO counters, abuse
detector, in-memory wide events) — that is the stock arm.  The armed
arm switches on everything the ops runbook deploys in production: wide
events persisted to rotating JSONL, and a full telemetry scrape
(summary/slo/abuse/events/stages) riding inside the timed burst.  The
acceptance bar is a <5% min-of-repeats burst-latency ratio, over seven
repeats per arm with the arm that runs first alternating.  Where the
armed bursts spent their stage time comes from the gateways' own
``stage_<name>_s`` histograms, the executor's per-stage latencies.

Correctness rides along: the same frames are served by every tier —
sequential :class:`VerificationServer`, threaded :class:`Gateway`
(strict and cascade, stock and armed), and :class:`ShardedGateway`
(strict and cascade) — and the :func:`repro.server.decisions_checksum`
digests must agree bitwise within each decision family (strict /
cascade), with verdict-level parity across families.  The digests land
in ``BENCH_obs_tier.json``; the kept wide events land next to it as a
CI artifact.
"""

import time

import numpy as np

from conftest import emit
from harness import results_dir, write_bench

from repro.attacks import ReplayAttack
from repro.devices import Loudspeaker, get_loudspeaker
from repro.experiments.world import attack_capture, genuine_capture
from repro.obs import WideEventRecorder, read_jsonl
from repro.server import (
    Gateway,
    GatewayConfig,
    MobileClient,
    ShardedGateway,
    VerificationServer,
    decisions_checksum,
    decode_decision,
    encode_request,
)

N_REQUESTS = 18
#: Frames 0, 6, 12 are replay attacks — the burst must exercise the
#: reject path so tail sampling has something to keep.
REPLAY_EVERY = 6
REPEATS = 7
SCRAPE_SECTIONS = ("summary", "slo", "abuse", "events", "stages")


def _frames(world):
    users = sorted(world.users)
    sample_rate = world.synthesizer.sample_rate
    frames = []
    for i in range(N_REQUESTS):
        user_id = users[i % len(users)]
        if i % REPLAY_EVERY == 0:
            stolen = world.user(user_id).enrolment_waveforms[-1]
            attempt = ReplayAttack(
                Loudspeaker(get_loudspeaker("Logitech LS21"), np.zeros(3))
            ).prepare(stolen, sample_rate, user_id)
            capture = attack_capture(world, attempt, 0.05)
        else:
            capture = genuine_capture(world, user_id, 0.05)
        frames.append(encode_request(capture, user_id, request_id=f"req-{i}"))
    return frames


def _serve_threaded(system, frames, cascade, events=None, scrape=False):
    """One timed burst through a threaded gateway; returns
    (decisions, elapsed_s, the gateway's metrics registry)."""
    with Gateway(
        system,
        GatewayConfig(request_workers=4, cascade=cascade),
        events=events,
    ) as gateway:
        client = MobileClient(gateway)
        t0 = time.perf_counter()
        decisions = [decode_decision(f) for f in gateway.handle_many(frames)]
        if scrape:
            client.scrape_metrics(SCRAPE_SECTIONS)
        elapsed = time.perf_counter() - t0
    return decisions, elapsed, gateway.metrics


def _serve_sharded(system, frames, cascade):
    with ShardedGateway(
        system, GatewayConfig(shards=2, cascade=cascade)
    ) as gateway:
        decisions = [decode_decision(f) for f in gateway.handle_many(frames)]
        assert gateway.shard_generations == [0, 0]
    return decisions


def test_obs_tier_overhead_and_decision_stability(bench_world):
    system = bench_world.system
    frames = _frames(bench_world)

    events_path = results_dir() / "obs_tier_events.jsonl"
    events_path.unlink(missing_ok=True)

    recorder = WideEventRecorder(path=events_path)
    stock_s, armed_s = [], []
    stage_busy_s = {}
    stock_decisions = armed_decisions = None

    def stock_burst():
        nonlocal stock_decisions
        stock_decisions, elapsed, _ = _serve_threaded(system, frames, cascade=True)
        stock_s.append(elapsed)

    def armed_burst():
        nonlocal armed_decisions
        armed_decisions, elapsed, metrics = _serve_threaded(
            system, frames, cascade=True, events=recorder, scrape=True
        )
        armed_s.append(elapsed)
        for name in metrics.stage_report():
            stage_busy_s[name] = (
                stage_busy_s.get(name, 0.0)
                + metrics.histogram(f"stage_{name}_s").sum
            )

    try:
        for repeat in range(REPEATS):
            # Interleave the arms, and alternate which goes first, so
            # machine drift and warm-up hit both equally.
            arms = (stock_burst, armed_burst)
            for burst in arms if repeat % 2 == 0 else arms[::-1]:
                burst()
    finally:
        recorder.close()

    overhead_ratio = min(armed_s) / min(stock_s)

    # ---- decision stability across every serving tier ----------------
    server = VerificationServer(system)
    try:
        sequential = [decode_decision(server.handle(f)) for f in frames]
    finally:
        server.close()
    threaded_strict, _, _ = _serve_threaded(system, frames, cascade=False)
    checksums = {
        "sequential": decisions_checksum(sequential),
        "threaded_strict": decisions_checksum(threaded_strict),
        "sharded_strict": decisions_checksum(
            _serve_sharded(system, frames, cascade=False)
        ),
        "cascade_stock": decisions_checksum(stock_decisions),
        "cascade_armed": decisions_checksum(armed_decisions),
        "sharded_cascade": decisions_checksum(
            _serve_sharded(system, frames, cascade=True)
        ),
    }

    # ---- artifacts ----------------------------------------------------
    kept_rows = read_jsonl(events_path)
    busy_total_s = sum(stage_busy_s.values())
    stage_shares = {
        name: seconds / busy_total_s
        for name, seconds in sorted(stage_busy_s.items())
    }

    emit(
        f"Obs-tier overhead ({N_REQUESTS}-request cascade burst, "
        f"min of {REPEATS})",
        [
            f"stock: {min(stock_s) * 1e3:7.1f} ms   "
            f"armed: {min(armed_s) * 1e3:7.1f} ms   "
            f"({overhead_ratio:.3f}x, gate < 1.05)",
            f"armed stage busy time: {busy_total_s * 1e3:.0f} ms, "
            + ", ".join(
                f"{name} {share:.0%}" for name, share in stage_shares.items()
            ),
            f"wide events kept to JSONL: {len(kept_rows)} "
            f"(reasons: {sorted({r['keep_reason'] for r in kept_rows})})",
            f"decision checksums: strict {checksums['sequential'][:16]}... "
            f"cascade {checksums['cascade_stock'][:16]}...",
        ],
    )

    write_bench(
        "obs_tier",
        latencies={"stock_burst": stock_s, "armed_burst": armed_s},
        counters={"wide_events_kept": len(kept_rows)},
        decision_checksums=checksums,
        extra={
            "overhead_ratio": overhead_ratio,
            "burst_requests": N_REQUESTS,
            "stage_shares": stage_shares,
        },
    )

    # ISSUE 9 acceptance: full armament costs <5% on the serving burst.
    assert overhead_ratio < 1.05, (stock_s, armed_s)

    # Bitwise agreement within each decision family...
    assert checksums["threaded_strict"] == checksums["sequential"]
    assert checksums["sharded_strict"] == checksums["sequential"]
    assert checksums["cascade_armed"] == checksums["cascade_stock"]
    assert checksums["sharded_cascade"] == checksums["cascade_stock"]
    # ...and verdict parity across them (cascade skips stages but never
    # flips an outcome).
    by_id = {d["request_id"]: d["accepted"] for d in sequential}
    assert all(
        d["accepted"] == by_id[d["request_id"]] for d in armed_decisions
    )
    # Every rejection (the replay frames, plus any genuine false
    # reject) was tail-kept in every armed burst — rejects never sample
    # away.
    rejected_ids = {r for r, ok in by_id.items() if not ok}
    assert {f"req-{i}" for i in range(0, N_REQUESTS, REPLAY_EVERY)} <= rejected_ids
    kept_reject_ids = [
        r["request_id"] for r in kept_rows if r["keep_reason"] == "reject"
    ]
    assert sorted(kept_reject_ids) == sorted(REPEATS * sorted(rejected_ids))

    # Every cascade stage ran, and its time was recorded, in the armed
    # bursts.
    assert set(stage_shares) == {"distance", "identity", "magnetic", "soundfield"}
    assert all(share > 0 for share in stage_shares.values())
