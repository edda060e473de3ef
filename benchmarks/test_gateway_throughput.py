"""Gateway throughput/latency baseline (serving architecture, DESIGN.md).

A 12-request concurrent burst (3 claimed speakers × 4 requests) through
the :class:`~repro.server.gateway.Gateway` — sound-field models served
from the LRU cache — checked
bitwise against the sequential :class:`VerificationServer`, with
requests/s and per-stage p50/p95 latency emitted as the baseline.
"""

import time

from conftest import emit
from harness import write_bench

from repro.experiments.world import genuine_capture
from repro.server import (
    Gateway,
    GatewayConfig,
    VerificationServer,
    decode_decision,
    decisions_checksum,
    encode_request,
)

N_REQUESTS = 12


def _burst(world):
    """Build frames, run them sequentially then concurrently, and time both."""
    users = sorted(world.users)
    frames = []
    for i in range(N_REQUESTS):
        user_id = users[i % len(users)]
        capture = genuine_capture(world, user_id, 0.05)
        frames.append(encode_request(capture, user_id, request_id=f"req-{i}"))

    server = VerificationServer(world.system)
    try:
        t0 = time.perf_counter()
        sequential = [server.handle(f) for f in frames]
        sequential_s = time.perf_counter() - t0
    finally:
        server.close()

    config = GatewayConfig(request_workers=N_REQUESTS)
    with Gateway(world.system, config) as gateway:
        t0 = time.perf_counter()
        concurrent = gateway.handle_many(frames)
        gateway_s = time.perf_counter() - t0
        metrics = gateway.metrics_summary()

    return {
        "sequential": sequential,
        "concurrent": concurrent,
        "sequential_s": sequential_s,
        "gateway_s": gateway_s,
        "metrics": metrics,
    }


def test_gateway_throughput_baseline(benchmark, bench_world):
    out = benchmark.pedantic(
        _burst, args=(bench_world,), rounds=1, iterations=1
    )
    metrics = out["metrics"]
    hists = metrics["histograms"]
    cache = metrics["soundfield_cache"]

    seq_rps = N_REQUESTS / out["sequential_s"]
    gw_rps = N_REQUESTS / out["gateway_s"]
    stage_lines = [
        f"{stage:12s}: p50 {hists[stage]['p50'] * 1e3:7.1f} ms   "
        f"p95 {hists[stage]['p95'] * 1e3:7.1f} ms"
        for stage in ("queue_s", "decode_s", "detection_s", "identity_s", "total_s")
    ]
    emit(
        "Gateway throughput baseline (12-request burst, 3 speakers)",
        [
            f"sequential: {seq_rps:5.1f} req/s   "
            f"gateway: {gw_rps:5.1f} req/s   "
            f"(speedup {gw_rps / seq_rps:.2f}x)",
            f"sound-field cache: {cache['hits']} hits / {cache['misses']} misses",
            *stage_lines,
        ],
    )

    # The acceptance bar: ≥8 concurrent requests, decisions bit-for-bit
    # equal to the sequential server despite concurrency and caching.
    assert len(out["concurrent"]) == N_REQUESTS >= 8
    for got, expected in zip(out["concurrent"], out["sequential"]):
        assert decode_decision(got) == decode_decision(expected)
    checksums = {
        mode: decisions_checksum([decode_decision(f) for f in out[mode]])
        for mode in ("sequential", "concurrent")
    }
    assert checksums["concurrent"] == checksums["sequential"]
    # The cache actually engaged during the burst.
    assert cache["hits"] >= 1
    # Lenient, non-flaky: concurrency must not be slower than 3x serial.
    assert out["gateway_s"] < 3.0 * out["sequential_s"]

    benchmark.extra_info["requests_per_s"] = gw_rps
    benchmark.extra_info["sequential_requests_per_s"] = seq_rps
    benchmark.extra_info["stage_summaries"] = {
        k: hists[k] for k in ("queue_s", "detection_s", "identity_s", "total_s")
    }
    write_bench(
        "gateway",
        latency_summaries={
            stage[: -len("_s")]: {
                "median_ms": hists[stage]["p50"] * 1e3,
                "p95_ms": hists[stage]["p95"] * 1e3,
            }
            for stage in ("queue_s", "detection_s", "identity_s", "total_s")
        },
        throughput_rps={"gateway": gw_rps, "sequential": seq_rps},
        counters={"soundfield_cache_hits": cache["hits"]},
        # Same frames, so both modes must carry the same digest; the
        # harness diff hard-fails if a future run drifts from baseline.
        decision_checksums={
            "sequential": checksums["sequential"],
            "gateway": checksums["concurrent"],
        },
    )
