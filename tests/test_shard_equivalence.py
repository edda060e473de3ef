"""Bitwise cross-mode equivalence harness (tier-1 gate for the serving modes).

Every serving mode runs the one request executor
(:func:`repro.core.pipeline.execute`), so for the same request frames
they must produce the **same outcome**, not only the same verdict.  The
reference is the pipeline itself, :meth:`DefenseSystem.verify_cascade`
in strict and in cascade mode, on the decoded frames.  Against it:

- the sequential :class:`VerificationServer` (strict) must return the
  reference's decision frames;
- the threaded :class:`Gateway` and the process-sharded
  :class:`ShardedGateway` for N ∈ {1, 2, 4}, each in strict and cascade
  mode, must return the reference's decision frames, and their audit
  :class:`DecisionRecord` rows must equal the reference's record row by
  row — stage order, scores, evidence and skip rows included — once the
  per-run fields (trace id, wall-clock stage latencies) are normalised.

The frames are the frozen golden-decision matrix, :data:`RANDOM_DRAWS`
randomized scenario draws, and one genuine capture taken 12 cm from the
mouth.  Its distance stage rejects confidently from the cascade's
parallel tail, where no early exit applies, so its skip set pins the
schedule: a mode that exited after ``distance`` would skip
``soundfield`` where the others run it.

The sharded tier must hold the identity **through a forced shard crash
and replacement**: after SIGKILLing a shard mid-stream, replayed frames
must still decide bitwise-identically on the replacement.

``SHARD_EQUIV_N`` (e.g. ``SHARD_EQUIV_N=2``) restricts the shard counts
exercised, so a CI matrix can run one N per leg.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.experiments.world import make_trajectory
from repro.obs.exporters import AuditJsonlExporter
from repro.server import (
    Gateway,
    GatewayConfig,
    ShardedGateway,
    VerificationServer,
    decode_decision,
    decode_request_full,
    decision_fingerprint,
    decisions_checksum,
    encode_decision,
    encode_request,
)
from repro.server.backend import decision_fields
from repro.world.humans import HumanSpeakerSource
from repro.world.scene import simulate_capture
from tests.test_golden_decisions import (
    BASE_SEED,
    CELLS,
    ENVIRONMENTS,
    SCENARIOS,
    _environment,
    build_cell,
)

#: Randomized scenario draws appended to the golden matrix (the gate
#: requires >= 50).  Drawn from a fixed seed so every mode sees the
#: exact same bytes — randomized across *scenarios*, frozen across runs.
RANDOM_DRAWS = 50
DRAW_SEED = 7000

#: The far genuine frame: a genuine attempt ending 12 cm from the mouth.
FAR_GENUINE_ID = "far-genuine"
FAR_GENUINE_SEED = 9200
FAR_GENUINE_DISTANCE_M = 0.12

MODES = ("strict", "cascade")

SHARD_COUNTS = [1, 2, 4]
if os.environ.get("SHARD_EQUIV_N"):
    SHARD_COUNTS = [
        int(n) for n in os.environ["SHARD_EQUIV_N"].split(",") if n.strip()
    ]


def _far_genuine(world):
    rng = np.random.default_rng(FAR_GENUINE_SEED)
    victim = sorted(world.users)[0]
    account = world.user(victim)
    waveform = world.synthesizer.synthesize_digits(
        account.profile, account.passphrase, rng
    ).waveform
    capture = simulate_capture(
        world.phone,
        HumanSpeakerSource(account.profile),
        _environment("quiet_room"),
        make_trajectory(FAR_GENUINE_DISTANCE_M),
        waveform,
        world.synthesizer.sample_rate,
        rng,
    )
    return capture, victim


@pytest.fixture(scope="module")
def frames(small_world):
    """Golden-matrix frames, the randomized draws and the far genuine
    frame, encoded once."""
    out = []
    for i, (env_name, scenario) in enumerate(CELLS):
        rng = np.random.default_rng(BASE_SEED + i)
        capture, claimed = build_cell(small_world, env_name, scenario, rng)
        out.append(encode_request(capture, claimed, request_id=f"golden-{i}"))
    draw_rng = np.random.default_rng(DRAW_SEED)
    for d in range(RANDOM_DRAWS):
        env_name = ENVIRONMENTS[int(draw_rng.integers(len(ENVIRONMENTS)))]
        scenario = SCENARIOS[int(draw_rng.integers(len(SCENARIOS)))]
        cell_rng = np.random.default_rng(int(draw_rng.integers(2**32)))
        capture, claimed = build_cell(small_world, env_name, scenario, cell_rng)
        out.append(encode_request(capture, claimed, request_id=f"draw-{d}"))
    capture, claimed = _far_genuine(small_world)
    out.append(encode_request(capture, claimed, request_id=FAR_GENUINE_ID))
    return out


def _normalized(record_row):
    """A DecisionRecord row minus the fields that vary per run/process,
    round-tripped through JSON like an audit-log row."""
    row = json.loads(json.dumps(record_row))
    row.pop("trace_id", None)
    row.pop("stage_latency_s", None)
    return row


@pytest.fixture(scope="module")
def reference(small_world, frames):
    """mode -> (decisions, records by request id) from the pipeline."""
    system = small_world.system
    out = {}
    for mode in MODES:
        decisions, records = [], {}
        for frame in frames:
            capture, claimed, request_id = decode_request_full(frame)
            report = system.verify_cascade(
                capture, claimed, strict=(mode == "strict")
            )
            payload, evidence = decision_fields(report)
            decisions.append(
                decode_decision(
                    encode_decision(
                        report.accepted,
                        payload,
                        request_id=request_id,
                        evidence=evidence,
                    )
                )
            )
            records[request_id] = _normalized(
                system.decision_record(report, request_id=request_id).to_dict()
            )
        out[mode] = (decisions, records)
    return out


@pytest.fixture(scope="module")
def sequential_decisions(small_world, frames):
    """One-at-a-time strict decisions from the sequential server."""
    server = VerificationServer(small_world.system)
    try:
        return [decode_decision(server.handle(f)) for f in frames]
    finally:
        server.close()


def _audit_rows(path):
    with open(path, encoding="utf-8") as fh:
        return {row["request_id"]: _normalized(row) for row in map(json.loads, fh)}


def _serve(gateway_cls, system, frames, config, audit_path):
    audit = AuditJsonlExporter(audit_path)
    with gateway_cls(system, config, audit=audit) as gateway:
        decisions = [decode_decision(f) for f in gateway.handle_many(frames)]
        generations = getattr(gateway, "shard_generations", None)
    audit.close()
    return decisions, _audit_rows(audit_path), generations


@pytest.fixture(scope="module")
def threaded(small_world, frames, tmp_path_factory):
    """mode -> (decisions, audit records) from the threaded gateway."""
    out = {}
    for mode in MODES:
        config = GatewayConfig(request_workers=4, cascade=(mode == "cascade"))
        path = tmp_path_factory.mktemp("threaded") / f"audit-{mode}.jsonl"
        decisions, records, _ = _serve(Gateway, small_world.system, frames, config, path)
        out[mode] = (decisions, records)
    return out


def _assert_same_outcomes(got, expected):
    """Layer 1: decoded decision dicts; layer 2: the bench digests;
    layer 3: the full audit records."""
    decisions, records = got
    ref_decisions, ref_records = expected
    assert decisions == ref_decisions
    for ours, ref in zip(decisions, ref_decisions):
        assert decision_fingerprint(ours) == decision_fingerprint(ref)
    assert decisions_checksum(decisions) == decisions_checksum(ref_decisions)
    assert records.keys() == ref_records.keys()
    for request_id, row in ref_records.items():
        assert records[request_id] == row, request_id


def test_server_matches_pipeline(reference, sequential_decisions):
    assert sequential_decisions == reference["strict"][0]


def test_threaded_gateway_matches_sequential(
    threaded, reference, sequential_decisions
):
    assert threaded["strict"][0] == sequential_decisions
    _assert_same_outcomes(threaded["strict"], reference["strict"])


def test_threaded_cascade_matches_pipeline(threaded, reference):
    _assert_same_outcomes(threaded["cascade"], reference["cascade"])
    # Cascade skips stages but never flips the verdict.
    assert [d["accepted"] for d in threaded["cascade"][0]] == [
        d["accepted"] for d in reference["strict"][0]
    ]


def test_far_genuine_skip_set_matches_across_modes(threaded, reference):
    """Distance rejects the far genuine attempt confidently, but from the
    parallel tail: the cascade still runs the sound-field stage beside
    it, in the pipeline exactly as in the gateway."""
    row = reference["cascade"][1][FAR_GENUINE_ID]
    statuses = {stage["name"]: stage["status"] for stage in row["stages"]}
    assert row["decision"] == "reject"
    assert statuses["distance"] == "reject"
    assert statuses["soundfield"] != "skipped"
    assert threaded["cascade"][1][FAR_GENUINE_ID] == row


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_strict_matches_sequential(
    small_world, frames, reference, sequential_decisions, shards, tmp_path
):
    decisions, records, generations = _serve(
        ShardedGateway,
        small_world.system,
        frames,
        GatewayConfig(shards=shards),
        tmp_path / "audit.jsonl",
    )
    assert generations == [0] * shards  # no crashes during a clean run
    assert decisions == sequential_decisions
    _assert_same_outcomes((decisions, records), reference["strict"])


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_cascade_matches_threaded_cascade(
    small_world, frames, reference, threaded, shards, tmp_path
):
    decisions, records, _ = _serve(
        ShardedGateway,
        small_world.system,
        frames,
        GatewayConfig(shards=shards, cascade=True),
        tmp_path / "audit.jsonl",
    )
    assert decisions == threaded["cascade"][0]
    _assert_same_outcomes((decisions, records), reference["cascade"])


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_equivalence_survives_shard_crash_and_replacement(
    small_world, frames, sequential_decisions, shards
):
    """SIGKILL a shard mid-stream; replayed frames must still decide
    bitwise-identically on the replacement process."""
    config = GatewayConfig(shards=shards)
    with ShardedGateway(small_world.system, config) as gateway:
        warmup = [decode_decision(f) for f in gateway.handle_many(frames[:5])]
        assert warmup == sequential_decisions[:5]
        gateway.kill_shard(0)
        deadline_gens = None
        for _ in range(100):  # wait for the monitor to replace shard 0
            deadline_gens = gateway.shard_generations
            if deadline_gens[0] >= 1:
                break
            time.sleep(0.05)
        assert deadline_gens is not None and deadline_gens[0] >= 1
        replayed = [decode_decision(f) for f in gateway.handle_many(frames)]
    assert replayed == sequential_decisions
    assert decisions_checksum(replayed) == decisions_checksum(
        sequential_decisions
    )
