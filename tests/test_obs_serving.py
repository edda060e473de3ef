"""Serving-path observability: traced gateway, audit export, telemetry.

The ISSUE-4 acceptance criterion lives here: a rejected replay request
must be fully reconstructable **offline** — from the exported JSONL trace
and audit files alone — including ordered spans with timings, each
stage's evidence against the paper thresholds, and the skip reasons of
cascaded-out stages.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    AuditJsonlExporter,
    DecisionRecord,
    Tracer,
    TraceJsonlExporter,
    parse_prometheus,
    read_jsonl,
    render_trace,
    spans_from_dicts,
)
from repro.server import (
    Gateway,
    GatewayConfig,
    KIND_DECISION,
    KIND_REQUEST,
    KIND_TELEMETRY_REQUEST,
    KIND_TELEMETRY_RESPONSE,
    MobileClient,
    decode_decision,
    encode_request,
    encode_telemetry_request,
    frame_kind,
)


@pytest.fixture()
def traced_gateway(small_world, tmp_path):
    """A cascade gateway with tracer + JSONL trace/audit exporters."""
    tracer = Tracer()
    trace_exporter = TraceJsonlExporter(tracer, tmp_path / "traces.jsonl")
    audit = AuditJsonlExporter(tmp_path / "audit.jsonl")
    gateway = Gateway(
        small_world.system,
        GatewayConfig(request_workers=2, cascade=True),
        tracer=tracer,
        audit=audit,
    )
    try:
        yield gateway, tmp_path
    finally:
        gateway.close()
        trace_exporter.close()
        audit.close()
        # The tracer was pushed into the shared session-scoped system;
        # detach it so later tests see the untraced default.
        from repro.obs import NULL_TRACER

        small_world.system.set_tracer(NULL_TRACER)


def test_rejected_replay_is_reconstructable_from_jsonl_alone(
    traced_gateway, world_user, world_replay_capture
):
    gateway, tmp_path = traced_gateway
    frame = gateway.handle(
        encode_request(world_replay_capture, world_user, request_id="audit-replay")
    )
    assert not decode_decision(frame)["accepted"]
    gateway.close()

    # ---- offline reconstruction: only the two JSONL files from here ----
    audit_rows = read_jsonl(tmp_path / "audit.jsonl")
    record = DecisionRecord.from_dict(
        next(r for r in audit_rows if r["request_id"] == "audit-replay")
    )
    assert not record.accepted
    assert record.mode == "cascade"
    assert record.claimed_speaker == world_user

    # Evidence against the paper thresholds, readable from the record.
    magnetic = record.stage("magnetic")
    assert magnetic.status == "reject"
    assert magnetic.evidence["Mt_ut"] == 6.0
    assert magnetic.evidence["beta_t_ut_s"] == 60.0
    assert (
        magnetic.evidence["peak_anomaly_ut"] > magnetic.evidence["Mt_ut"]
        or magnetic.evidence["max_rate_ut_s"] > magnetic.evidence["beta_t_ut_s"]
    )

    # Skip rows explain why downstream stages never ran.
    assert record.early_exit_stage == "magnetic"
    skipped = [row for row in record.stages if row.status == "skipped"]
    assert skipped, "cascade should have skipped the expensive tail"
    for row in skipped:
        assert "magnetic" in row.skip_reason
        assert row.cost_saved_ms > 0.0

    # The trace file holds the matching span tree, ordered and timed.
    trace_rows = read_jsonl(tmp_path / "traces.jsonl")
    spans = spans_from_dicts(
        next(r for r in trace_rows if r["trace_id"] == record.trace_id)["spans"]
    )
    by_name = {s.name: s for s in spans}
    root = by_name["request"]
    assert root.parent_id is None
    assert root.attrs["decision"] == "reject"
    assert root.attrs["request_id"] == "audit-replay"
    for name in ("queue", "decode", "stage.magnetic"):
        span = by_name[name]
        assert span.parent_id == root.span_id
        assert span.duration_s is not None and span.duration_s >= 0.0
    # The DSP kernel span nests under its stage, across the scheduler
    # thread boundary.
    kernel = by_name["dsp.magnetic_signature"]
    assert kernel.parent_id == by_name["stage.magnetic"].span_id
    # Skipped stages appear as zero-ish spans with the skip reason.
    for row in skipped:
        span = by_name[f"stage.{row.name}"]
        assert span.status == "skipped"
        assert "magnetic" in span.attrs["skip_reason"]
    # Span ordering reconstructs the request timeline.
    starts = [s.start_wall for s in spans if s.parent_id == root.span_id]
    assert starts == sorted(starts) or len(set(starts)) < len(starts)
    # And the human-readable forms render from the files alone.
    assert "stage.magnetic" in render_trace(spans)
    assert "REJECT" in record.explain()


def test_gateway_decisions_identical_with_and_without_tracer(
    small_world, world_user, world_genuine_capture, world_replay_capture, tmp_path
):
    frames = [
        encode_request(world_genuine_capture, world_user, request_id="g"),
        encode_request(world_replay_capture, world_user, request_id="r"),
    ]
    with Gateway(small_world.system, GatewayConfig(cascade=True)) as plain:
        baseline = [decode_decision(f) for f in plain.handle_many(frames)]
    tracer = Tracer()
    try:
        with Gateway(
            small_world.system, GatewayConfig(cascade=True), tracer=tracer
        ) as traced:
            observed = [decode_decision(f) for f in traced.handle_many(frames)]
    finally:
        from repro.obs import NULL_TRACER

        small_world.system.set_tracer(NULL_TRACER)
    assert observed == baseline


def test_gateway_identity_spans_match_the_pipeline(
    small_world, world_user, world_genuine_capture
):
    """The threaded gateway scores identity as every other mode does: its
    ``stage.identity`` span has the children of a traced
    ``DefenseSystem.verify``, and no ``identity.batch`` span exists."""
    from repro.obs import NULL_TRACER

    def identity_children(spans):
        stage = next(s for s in spans if s.name == "stage.identity")
        return [s.name for s in spans if s.parent_id == stage.span_id]

    tracer = Tracer()
    try:
        with Gateway(
            small_world.system, GatewayConfig(request_workers=1), tracer=tracer
        ) as gateway:
            gateway.handle(encode_request(world_genuine_capture, world_user))
        served = [s for trace in tracer.drain_completed() for s in trace]
        small_world.system.verify(world_genuine_capture, world_user)
        verified = [s for trace in tracer.drain_completed() for s in trace]
    finally:
        small_world.system.set_tracer(NULL_TRACER)
    assert identity_children(verified), "identity kernels nest under the stage"
    assert identity_children(served) == identity_children(verified)
    assert not any(s.name == "identity.batch" for s in served)


def test_decision_frames_carry_component_evidence(
    small_world, world_user, world_replay_capture
):
    with Gateway(small_world.system, GatewayConfig()) as gateway:
        decision = decode_decision(
            gateway.handle(encode_request(world_replay_capture, world_user))
        )
    magnetic = decision["components"]["magnetic"]
    assert magnetic["evidence"]["Mt_ut"] == 6.0
    assert "peak_anomaly_ut" in magnetic["evidence"]


def test_frame_kind_demultiplexes_the_protocol(world_genuine_capture):
    request = encode_request(world_genuine_capture, "alice")
    assert frame_kind(request) == KIND_REQUEST
    scrape = encode_telemetry_request()
    assert frame_kind(scrape) == KIND_TELEMETRY_REQUEST
    assert KIND_DECISION == 2 and KIND_TELEMETRY_RESPONSE == 4


def test_telemetry_scrape_matches_live_registry(
    small_world, world_user, world_genuine_capture
):
    with Gateway(small_world.system, GatewayConfig()) as gateway:
        for _ in range(3):
            gateway.handle(encode_request(world_genuine_capture, world_user))
        client = MobileClient(gateway)
        telemetry = client.scrape_metrics(
            ("summary", "prometheus", "stages", "drift")
        )
    # The Prometheus exposition parses and agrees with the JSON summary
    # rendered in the same scrape.
    parsed = parse_prometheus(telemetry["prometheus"])
    summary = telemetry["summary"]
    for name, value in summary["counters"].items():
        assert parsed[f"repro_{name}_total"][""] == float(value), name
    for name, stats in summary["histograms"].items():
        metric = f"repro_{name}"
        assert parsed[metric + "_count"][""] == stats["count"], name
        assert parsed[metric][('{quantile="0.5"}')] == pytest.approx(
            stats["p50"]
        ), name
    assert parsed["repro_requests_completed_total"][""] == 3.0
    assert "throughput_rps" in summary and summary["throughput_rps"] > 0.0
    assert "windowed_throughput_rps" in summary
    # Drift monitors saw every stage's score stream.
    assert set(summary["drift"]["stages"]) == set(
        small_world.system.enabled_components
    )
    assert telemetry["drift"]["stages"].keys() == summary["drift"]["stages"].keys()


def test_telemetry_scrape_omits_unknown_sections(small_world):
    with Gateway(small_world.system, GatewayConfig()) as gateway:
        client = MobileClient(gateway)
        telemetry = client.scrape_metrics(("summary", "flux_capacitor"))
    assert "summary" in telemetry
    assert "flux_capacitor" not in telemetry


def test_telemetry_scrape_bypasses_the_request_queue(small_world):
    # max_queue=1 with no submitted work: a scrape must resolve even so,
    # because it never enters the admission queue.
    with Gateway(
        small_world.system, GatewayConfig(request_workers=1, max_queue=1)
    ) as gateway:
        response = gateway.submit(encode_telemetry_request(("summary",)))
        assert response.done()  # resolved synchronously at submit time
        assert frame_kind(response.result()) == KIND_TELEMETRY_RESPONSE


def test_scrape_includes_slo_abuse_and_events_sections(
    small_world, world_user, world_genuine_capture, world_replay_capture
):
    with Gateway(small_world.system, GatewayConfig()) as gateway:
        for _ in range(3):
            gateway.handle(encode_request(world_genuine_capture, world_user))
        gateway.handle(encode_request(world_replay_capture, world_user))
        client = MobileClient(gateway)
        telemetry = client.scrape_metrics(("summary", "slo", "abuse", "events"))
    slo = telemetry["slo"]
    assert set(slo) == {"latency", "availability", "errors"}
    for status in slo.values():
        severities = [row["severity"] for row in status["windows"]]
        assert severities == ["page", "ticket"]
    # Four clean requests: no SLO alert, no abuse flag.
    assert all(status["alerting"] == [] for status in slo.values())
    abuse = telemetry["abuse"]
    assert abuse["flagged_speakers"] == []
    assert abuse["tracked_speakers"] == 1  # one claimed speaker seen
    events = telemetry["events"]
    assert events["seen"] == 4
    # Tail sampling kept the rejection (and possibly a head sample).
    kept_reasons = {e["keep_reason"] for e in events["recent"]}
    assert "reject" in kept_reasons
    rejected = next(
        e for e in events["recent"] if e["keep_reason"] == "reject"
    )
    assert rejected["decision"] == "reject"
    assert rejected["claimed_speaker"] == world_user
    assert rejected["duration_s"] > 0.0


def test_latency_slo_counters_cover_every_completed_request(
    small_world, world_user, world_genuine_capture
):
    with Gateway(small_world.system, GatewayConfig()) as gateway:
        for _ in range(5):
            gateway.handle(encode_request(world_genuine_capture, world_user))
        good = gateway.metrics.counter("slo_latency_good")
        bad = gateway.metrics.counter("slo_latency_bad")
        completed = gateway.metrics.counter("requests_completed")
    assert good + bad == completed == 5


def test_served_exemplar_links_latency_bucket_to_a_kept_event(
    small_world, world_user, world_replay_capture
):
    """A rejected request is tail-kept, so its id rides the total_s
    histogram as an OpenMetrics exemplar in the exposition."""
    with Gateway(small_world.system, GatewayConfig()) as gateway:
        gateway.handle(
            encode_request(
                world_replay_capture, world_user, request_id="exemplar-req"
            )
        )
        client = MobileClient(gateway)
        telemetry = client.scrape_metrics(("prometheus",))
    exposition = telemetry["prometheus"]
    exemplar_lines = [
        line
        for line in exposition.splitlines()
        if "repro_total_s_bucket" in line and "# {trace_id=" in line
    ]
    assert exemplar_lines, exposition
    assert any("exemplar-req" in line for line in exemplar_lines)


def test_sharded_scrape_carries_the_operational_sections(
    small_world, world_user, world_genuine_capture, world_replay_capture
):
    """Sharded serving surfaces the same telemetry sections; wide
    events are rebuilt from the shards' decision-record rows (no extra
    cross-process message) and carry the owning shard id."""
    from repro.server import ShardedGateway

    config = GatewayConfig(shards=1)
    with ShardedGateway(small_world.system, config) as gateway:
        for _ in range(2):
            gateway.handle(encode_request(world_genuine_capture, world_user))
        gateway.handle(encode_request(world_replay_capture, world_user))
        client = MobileClient(gateway)
        telemetry = client.scrape_metrics(("summary", "slo", "abuse", "events"))
    assert set(telemetry["slo"]) == {"latency", "availability", "errors"}
    assert telemetry["abuse"]["tracked_speakers"] == 1
    events = telemetry["events"]
    assert events["seen"] == 3
    rejected = next(
        e for e in events["recent"] if e["keep_reason"] == "reject"
    )
    assert rejected["shard_id"] == 0
    assert rejected["claimed_speaker"] == world_user
    # The latency SLO counters live shard-side and arrive via the
    # metrics merge: every completed request is counted exactly once.
    summary = telemetry["summary"]
    counters = summary["counters"]
    assert (
        counters.get("slo_latency_good", 0) + counters.get("slo_latency_bad", 0)
        == counters["requests_completed"]
        == 3
    )
