"""Serving-path metrics: latency histograms and throughput counters.

A :class:`Histogram` keeps running aggregates (count/sum/min/max) over
the full stream plus a bounded window of recent samples for
percentiles, and a :class:`MetricsRegistry` names a thread-safe
collection of histograms and counters.  The registry times nothing
itself: its ``stage_<name>_s`` histograms record the executor's
``VerificationReport.stage_latency_s`` (see
:func:`repro.server.backend.observe_request`), the one place stage time
is measured.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.analysis import lockset
from repro.errors import ConfigurationError

#: Cumulative-bucket upper bounds (seconds) used for the Prometheus
#: ``_bucket{le=...}`` exposition and for exemplar attachment.  The
#: final implicit bucket is ``+Inf``.  The decade-ish spacing matches
#: the serving path's dynamic range: 0.2 ms magnetometer rejections up
#: to multi-second timeout tails.
LATENCY_BUCKET_BOUNDS_S: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


class Histogram:
    """Streaming histogram of float samples.

    Aggregates (count, sum, min, max) cover every recorded sample;
    percentiles are computed over a sliding window of the most recent
    ``window`` samples, which bounds memory for a long-lived gateway.
    Fixed cumulative buckets (:data:`LATENCY_BUCKET_BOUNDS_S`) cover the
    whole stream and can carry one **exemplar** each — the trace id of a
    real request that landed in that bucket, the hook a Grafana panel
    uses to jump from a latency spike to its trace.
    """

    def __init__(self, window: int = 4096):
        if window <= 0:
            raise ConfigurationError("window must be positive")
        self._window = window
        self._samples = np.empty(window, dtype=float)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._buckets = [0] * (len(LATENCY_BUCKET_BOUNDS_S) + 1)
        #: bucket index -> (value, exemplar label, wall-clock ts)
        self._exemplars: Dict[int, Tuple[float, str, float]] = {}

    def record(self, value: float, exemplar: Optional[str] = None) -> None:
        value = float(value)
        self._samples[self._count % self._window] = value
        self._count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        idx = bisect.bisect_left(LATENCY_BUCKET_BOUNDS_S, value)
        self._buckets[idx] += 1
        if exemplar is not None:
            self._exemplars[idx] = (value, exemplar, time.time())

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Percentile over the recent-sample window (p in [0, 100])."""
        if self._count == 0:
            return 0.0
        filled = self._samples[: min(self._count, self._window)]
        return float(np.percentile(filled, p))

    def p50_p95(self) -> Tuple[float, float]:
        """The median and p95 of the recent window, from one
        ``np.percentile`` call (the same values as two
        :meth:`percentile` calls)."""
        if self._count == 0:
            return 0.0, 0.0
        filled = self._samples[: min(self._count, self._window)]
        q = np.percentile(filled, (50.0, 95.0))
        return float(q[0]), float(q[1])

    @property
    def bucket_counts(self) -> Tuple[int, ...]:
        """Non-cumulative counts per bucket (last bucket is +Inf)."""
        return tuple(self._buckets)

    def exemplars(self) -> Dict[int, Tuple[float, str, float]]:
        """Latest exemplar per bucket index: (value, label, wall ts)."""
        return dict(self._exemplars)

    # -- cross-process merge -------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Picklable full state: aggregates plus the recent window in
        chronological order (shard → parent metrics handoff)."""
        filled = min(self._count, self._window)
        if self._count <= self._window:
            recent = self._samples[:filled]
        else:
            pivot = self._count % self._window
            recent = np.concatenate(
                (self._samples[pivot:], self._samples[:pivot])
            )
        return {
            "window": self._window,
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "recent": [float(v) for v in recent],
            "buckets": list(self._buckets),
            "exemplars": {
                str(idx): list(row) for idx, row in self._exemplars.items()
            },
        }

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold another histogram's :meth:`state_dict` into this one.

        Aggregates add exactly; the recent windows are concatenated
        (ours first, theirs second) and truncated to the newest
        ``window`` samples, preserving the invariant that percentiles
        see ``min(count, window)`` samples.  After a merge the ring's
        eviction order is approximate — acceptable, since the window
        only feeds order-insensitive percentiles.
        """
        count = int(state["count"])  # type: ignore[arg-type]
        if count == 0:
            return
        self._sum += float(state["sum"])  # type: ignore[arg-type]
        if state["min"] is not None:
            self._min = min(self._min, float(state["min"]))  # type: ignore[arg-type]
        if state["max"] is not None:
            self._max = max(self._max, float(state["max"]))  # type: ignore[arg-type]
        ours = min(self._count, self._window)
        combined = list(self._samples[:ours]) + list(state["recent"])  # type: ignore[arg-type]
        kept = combined[-self._window :]
        self._samples[: len(kept)] = kept
        self._count += count
        for idx, n in enumerate(state.get("buckets", ())):  # type: ignore[arg-type]
            self._buckets[idx] += int(n)
        for key, row in dict(state.get("exemplars", {})).items():  # type: ignore[arg-type]
            idx = int(key)
            value, label, wall = float(row[0]), str(row[1]), float(row[2])
            ours_row = self._exemplars.get(idx)
            # Keep the newest exemplar per bucket across the merge.
            if ours_row is None or wall >= ours_row[2]:
                self._exemplars[idx] = (value, label, wall)

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Histogram":
        hist = cls(int(state["window"]))  # type: ignore[arg-type]
        hist.merge_state(state)
        return hist

    def summary(self) -> Dict[str, float]:
        p50, p95 = self.p50_p95()
        return {
            "count": float(self._count),
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": p50,
            "p95": p95,
        }


class MetricsRegistry:
    """Thread-safe named histograms + monotonic counters."""

    #: Recent-increment events kept per counter for windowed rates.
    EVENT_WINDOW = 4096

    def __init__(self, window: int = 4096):
        self._window = window
        self._lock = threading.Lock()
        self._histograms: Dict[str, Histogram] = {}  # guarded-by: _lock
        self._counters: Dict[str, int] = {}  # guarded-by: _lock
        self._events: Dict[str, Deque[Tuple[float, int]]] = {}  # guarded-by: _lock
        self._started_at = time.monotonic()
        lockset.register(self)

    # -- histograms ----------------------------------------------------
    def observe(
        self, name: str, value: float, exemplar: Optional[str] = None
    ) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(self._window)
            hist.record(value, exemplar=exemplar)

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(self._window)
            return hist

    # -- counters ------------------------------------------------------
    def increment(
        self, name: str, by: int = 1, at: Optional[float] = None
    ) -> None:
        """Bump a counter, recording the increment event for windowed
        rates.  ``at`` overrides the event timestamp (monotonic-clock
        domain) — used by tests and replayed streams; live serving code
        leaves it ``None``."""
        now = time.monotonic() if at is None else float(at)
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by
            events = self._events.get(name)
            if events is None:
                events = self._events[name] = deque(maxlen=self.EVENT_WINDOW)
            events.append((now, by))

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    # -- reporting -----------------------------------------------------
    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_at

    def throughput(self, counter_name: str = "requests_completed") -> float:
        """Completed requests per second since the registry was created."""
        elapsed = self.uptime_s
        return self.counter(counter_name) / elapsed if elapsed > 0 else 0.0

    def windowed_throughput(
        self,
        counter_name: str = "requests_completed",
        window_s: float = 60.0,
    ) -> float:
        """Rate of a counter over (at most) the last ``window_s`` seconds.

        Unlike :meth:`throughput`, which averages over the registry's whole
        lifetime, this reflects the *current* load: an idle gateway decays
        to zero within one window.  The rate is computed from a bounded
        ring of recent increment events, so a burst larger than
        ``EVENT_WINDOW`` increments under-counts (the lifetime counter
        never does).
        """
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        now = time.monotonic()
        cutoff = now - window_s
        with self._lock:
            events = self._events.get(counter_name)
            total = (
                sum(by for ts, by in events if ts >= cutoff) if events else 0
            )
        span = min(window_s, max(now - self._started_at, 1e-9))
        return total / span

    def windowed_count(
        self,
        counter_name: str,
        window_s: float,
        now: Optional[float] = None,
    ) -> int:
        """Sum of a counter's increments inside the last ``window_s``
        seconds (monotonic-clock domain; ``now`` defaults to the current
        monotonic time).

        This is the primitive the SLO burn-rate math runs on.  It is a
        pure function of the counter's event ring, so a merged N-shard
        registry (whose rings are the sorted union of the shards') gives
        the same answer as a single registry that saw every event —
        evaluated at the same ``now``.  Bursts larger than
        ``EVENT_WINDOW`` increments under-count, like
        :meth:`windowed_throughput`.
        """
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        if now is None:
            now = time.monotonic()
        cutoff = now - window_s
        with self._lock:
            events = self._events.get(counter_name)
            if not events:
                return 0
            total = 0
            # Newest-last ring: walk from the right, stop at the cutoff.
            for ts, by in reversed(events):
                if ts < cutoff:
                    break
                if ts <= now:
                    total += by
            return total

    def summary(self) -> Dict[str, object]:
        with self._lock:
            hists = {name: h.summary() for name, h in self._histograms.items()}
            counters = dict(self._counters)
        return {"histograms": hists, "counters": counters}

    # -- cross-process merge -------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Picklable point-in-time state of every series.

        Shard workers ship this over the result queue; the parent folds
        the snapshots together with :meth:`merge_snapshot` so
        ``stage_report()``/exposition stay whole-system.  Event
        timestamps are ``time.monotonic()`` values — comparable across
        processes on one host (CLOCK_MONOTONIC is system-wide on
        Linux), which is the only place shards exist.
        """
        with self._lock:
            return {
                "window": self._window,
                "started_at": self._started_at,
                "histograms": {
                    name: h.state_dict()
                    for name, h in self._histograms.items()
                },
                "counters": dict(self._counters),
                "events": {
                    name: list(events)
                    for name, events in self._events.items()
                },
            }

    def merge_snapshot(self, snap: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` (typically from another process) in."""
        with self._lock:
            for name, state in snap["histograms"].items():  # type: ignore[union-attr]
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = Histogram(self._window)
                hist.merge_state(state)
            for name, value in snap["counters"].items():  # type: ignore[union-attr]
                self._counters[name] = self._counters.get(name, 0) + value
            for name, rows in snap["events"].items():  # type: ignore[union-attr]
                events = self._events.get(name)
                if events is None:
                    events = self._events[name] = deque(
                        maxlen=self.EVENT_WINDOW
                    )
                merged = sorted(
                    list(events) + [(float(ts), int(by)) for ts, by in rows]
                )
                events.clear()
                events.extend(merged[-self.EVENT_WINDOW :])
            # Whole-system uptime starts at the oldest participant.
            self._started_at = min(
                self._started_at, float(snap["started_at"])  # type: ignore[arg-type]
            )

    def merged(self, *snapshots: Dict[str, object]) -> "MetricsRegistry":
        """A new registry combining this one with shard snapshots,
        leaving this registry untouched."""
        combined = MetricsRegistry(self._window)
        combined.merge_snapshot(self.snapshot())
        for snap in snapshots:
            combined.merge_snapshot(snap)
        return combined

    def stage_report(self) -> Dict[str, Dict[str, float]]:
        """Per-cascade-stage runs, skips, errors and latency percentiles.

        Aggregates the ``stage_<name>_s`` histograms plus the
        ``stage_skipped_<name>`` and ``stage_errors_<name>`` counters the
        gateway cascade maintains.  A stage that failed records no
        latency, only its error count.  Stages that never ran but were
        skipped still appear (run p50/p95 report 0.0).
        """
        with self._lock:
            hists = {
                name[len("stage_") : -len("_s")]: h
                for name, h in self._histograms.items()
                if name.startswith("stage_") and name.endswith("_s")
            }
            skips = {
                name[len("stage_skipped_") :]: count
                for name, count in self._counters.items()
                if name.startswith("stage_skipped_")
            }
            errors = {
                name[len("stage_errors_") :]: count
                for name, count in self._counters.items()
                if name.startswith("stage_errors_")
            }
        report: Dict[str, Dict[str, float]] = {}
        for stage in sorted(set(hists) | set(skips) | set(errors)):
            hist = hists.get(stage)
            runs = hist.count if hist is not None else 0
            skipped = skips.get(stage, 0)
            total = runs + skipped
            p50, p95 = hist.p50_p95() if hist is not None else (0.0, 0.0)
            report[stage] = {
                "runs": float(runs),
                "skipped": float(skipped),
                "skip_rate": skipped / total if total else 0.0,
                "errors": float(errors.get(stage, 0)),
                "p50_s": p50,
                "p95_s": p95,
            }
        return report
