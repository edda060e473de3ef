"""Metrics registry edge cases: wraparound, concurrency, stage reports."""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.server.metrics import Histogram, MetricsRegistry


def test_stage_report_with_skip_only_stage():
    registry = MetricsRegistry()
    registry.increment("stage_skipped_soundfield", 3)
    report = registry.stage_report()
    assert report["soundfield"]["runs"] == 0.0
    assert report["soundfield"]["skipped"] == 3.0
    assert report["soundfield"]["skip_rate"] == 1.0
    assert report["soundfield"]["p50_s"] == 0.0


def test_histogram_window_wraparound():
    hist = Histogram(window=8)
    for i in range(20):
        hist.record(float(i))
    # Lifetime aggregates cover every sample...
    assert hist.count == 20
    assert hist.min == 0.0 and hist.max == 19.0
    assert hist.sum == float(sum(range(20)))
    # ...while percentiles cover only the most recent window (12..19).
    assert hist.percentile(50.0) == pytest.approx(np.percentile(range(12, 20), 50))
    assert hist.percentile(0.0) == 12.0



def test_summary_percentiles_equal_two_percentile_calls():
    """summary() and stage_report() take p50 and p95 from one
    np.percentile call; the values must be the two calls' bits."""
    rng = np.random.default_rng(48)
    for trial in range(300):
        window = int(rng.integers(1, 64))
        hist = Histogram(window=window)
        for value in rng.exponential(0.03, int(rng.integers(1, 3 * window))):
            hist.record(float(value))
        summary = hist.summary()
        assert summary["p50"] == hist.percentile(50.0), trial
        assert summary["p95"] == hist.percentile(95.0), trial
    empty = Histogram(window=4).summary()
    assert (empty["p50"], empty["p95"]) == (0.0, 0.0)
    registry = MetricsRegistry(window=32)
    for value in rng.exponential(0.02, 50):
        registry.observe("stage_distance_s", float(value))
    hist = registry.histogram("stage_distance_s")
    row = registry.stage_report()["distance"]
    assert row["p50_s"] == hist.percentile(50.0)
    assert row["p95_s"] == hist.percentile(95.0)

def test_concurrent_observe_keeps_every_sample():
    registry = MetricsRegistry(window=16384)
    n_threads, per_thread = 8, 500

    def observe() -> None:
        for i in range(per_thread):
            registry.observe("total_s", float(i))

    threads = [threading.Thread(target=observe) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert registry.histogram("total_s").count == n_threads * per_thread


def test_stage_report_excludes_error_histograms_and_counts_errors():
    # As scheduler_fan_out and observe_request record them: a clean run
    # lands in the stage histogram, a failed one only bumps its counter.
    registry = MetricsRegistry()
    registry.observe("stage_magnetic_s", 0.0002)
    registry.increment("stage_errors_magnetic")
    report = registry.stage_report()
    assert set(report) == {"magnetic"}  # the error counter adds no stage
    assert report["magnetic"]["runs"] == 1.0
    assert report["magnetic"]["errors"] == 1.0


def test_windowed_throughput_reflects_recent_rate():
    registry = MetricsRegistry()
    for _ in range(10):
        registry.increment("requests_completed")
    # Let uptime dominate the microseconds between the two rate reads;
    # both divide by uptime, so near-zero uptime makes them diverge.
    time.sleep(0.05)
    rate = registry.windowed_throughput(window_s=60.0)
    assert rate > 0.0
    # All ten increments happened "now", far inside the window, so the
    # windowed rate matches the lifetime throughput.
    assert rate == pytest.approx(registry.throughput(), rel=0.5)


def test_windowed_throughput_excludes_old_events():
    registry = MetricsRegistry()
    registry._events["old"] = deque([(time.monotonic() - 120.0, 5)])
    registry._counters["old"] = 5
    assert registry.windowed_throughput("old", window_s=60.0) == 0.0
    assert registry.throughput("old") > 0.0  # lifetime rate still sees it


def test_windowed_throughput_rejects_bad_window():
    registry = MetricsRegistry()
    with pytest.raises(ConfigurationError):
        registry.windowed_throughput(window_s=0.0)


def test_windowed_throughput_of_unknown_counter_is_zero():
    registry = MetricsRegistry()
    assert registry.windowed_throughput("never_incremented") == 0.0


# ---------------------------------------------------------------------------
# Shard-merge order independence (property test)
# ---------------------------------------------------------------------------


def _random_shard_registry(rng: np.random.Generator, tag: int) -> MetricsRegistry:
    """One shard's worth of random-but-seeded traffic."""
    registry = MetricsRegistry()
    for i in range(int(rng.integers(5, 40))):
        name = rng.choice(["requests_completed", "accepted", "slo_latency_bad"])
        registry.increment(str(name), at=float(rng.uniform(0.0, 500.0)))
    for i in range(int(rng.integers(5, 40))):
        # Distinct wall-ts exemplars so "keep the newest" has no ties.
        registry.observe(
            "total_s",
            float(rng.uniform(0.001, 2.0)),
            exemplar=f"trace-{tag}-{i}" if i % 5 == 0 else None,
        )
    for i in range(int(rng.integers(0, 20))):
        registry.observe("stage_identity_s", float(rng.uniform(0.001, 0.05)))
    return registry


def _merge_view(snapshots, order):
    parent = MetricsRegistry()
    for idx in order:
        parent.merge_snapshot(snapshots[idx])
    return parent


def _observables(registry: MetricsRegistry):
    """Everything a scrape can see, normalised to be order-insensitive
    where the underlying container is (the percentile window keeps a
    set of samples whose *order* depends on merge order; their values
    must not)."""
    snap = registry.snapshot()
    hists = {}
    for name, state in snap["histograms"].items():
        hists[name] = {
            "count": state["count"],
            "sum": pytest.approx(state["sum"]),
            "min": state["min"],
            "max": state["max"],
            "buckets": state["buckets"],
            "recent": sorted(state["recent"]),
            "exemplars": state["exemplars"],
        }
    return {
        "counters": snap["counters"],
        "events": {k: sorted(v) for k, v in snap["events"].items()},
        "histograms": hists,
        "windowed": {
            name: registry.windowed_count(name, 300.0, now=500.0)
            for name in snap["counters"]
        },
        "stage_report": registry.stage_report(),
    }


def test_merge_snapshot_is_order_independent():
    """Folding N shard snapshots in any order yields the same
    observable state: counters, event rings, windowed counts, bucket
    counts, exemplars, percentile-window contents, stage report."""
    rng = np.random.default_rng(2024)
    for trial in range(5):
        shards = [
            _random_shard_registry(rng, tag=trial * 10 + s) for s in range(4)
        ]
        snapshots = [s.snapshot() for s in shards]
        orders = [list(rng.permutation(4)) for _ in range(3)]
        views = [_observables(_merge_view(snapshots, o)) for o in orders]
        assert views[0] == views[1] == views[2], orders


def test_merge_snapshot_matches_a_single_registry_stream():
    """Sharded-and-merged equals one registry that saw every event
    (the cross-mode telemetry-parity invariant, minus sampling windows
    that overflow)."""
    single = MetricsRegistry()
    shards = [MetricsRegistry() for _ in range(3)]
    for i in range(120):
        at = float(i)
        single.increment("requests_completed", at=at)
        shards[i % 3].increment("requests_completed", at=at)
        single.observe("total_s", 0.001 * (i + 1))
        shards[i % 3].observe("total_s", 0.001 * (i + 1))
    parent = MetricsRegistry()
    for shard in shards:
        parent.merge_snapshot(shard.snapshot())
    assert parent.counter("requests_completed") == 120
    assert parent.windowed_count("requests_completed", 60.0, now=119.0) == (
        single.windowed_count("requests_completed", 60.0, now=119.0)
    )
    merged_state = parent.snapshot()["histograms"]["total_s"]
    single_state = single.snapshot()["histograms"]["total_s"]
    assert merged_state["count"] == single_state["count"]
    assert merged_state["sum"] == pytest.approx(single_state["sum"])
    assert merged_state["buckets"] == single_state["buckets"]
    assert sorted(merged_state["recent"]) == sorted(single_state["recent"])
