"""Per-layer ledger of the serving benchmark (the ``--trace 1`` run).

Two sources feed it:

- the program's own :class:`~repro.obs.trace.Tracer` spans: ``request``,
  ``queue``, ``decode``, ``stage.<name>`` (``skipped`` when the cascade
  exits early), ``identity.batch`` and ``shard.process``, with shard
  spans re-homed in the parent through ``Tracer.ingest``;
- :class:`CallLedger`, timing wrappers this benchmark installs around
  public kernel and protocol functions for the traced gateway only.
  Shard processes fork with the wrappers in place and write their rows
  to a file when they exit, so the sharded workload is covered too.

A layer's self time is its interval minus the union of the intervals
nested in it.  Parallel stages are merged as a union of intervals, so
the layers of one request add up to its span along the blocking path;
what no layer covers is the gateway's own bookkeeping
(``gateway.self_p50_ms``), and its share of the request is
``trace.unattributed_share``.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: The four cascade stages of the paper's pipeline (Fig. 4).
STAGES = ("distance", "soundfield", "magnetic", "identity")
#: Stages fanned out on the job scheduler (everything but identity).
DETECTION = ("distance", "soundfield", "magnetic")


def _frames(args: tuple, kwargs: dict, result: object) -> int:
    """Feature rows scored by one ``llr_score*`` call."""
    features = args[2] if len(args) > 2 else kwargs.get("features", kwargs.get("features_list"))
    if isinstance(features, np.ndarray):
        return int(features.shape[0])
    return int(sum(np.asarray(f).shape[0] for f in features))


def _captures(args: tuple, kwargs: dict, result: object) -> int:
    """Captures scored by one ``IdentityVerifier.verify*`` call."""
    return len(result) if isinstance(result, list) else 1


def _decoded_request_id(args: tuple, kwargs: dict, result: object) -> str:
    return str(result[2])  # type: ignore[index]


def _encoded_request_id(args: tuple, kwargs: dict, result: object) -> str:
    return str(kwargs.get("request_id", args[2] if len(args) > 2 else ""))


def _no_key(args: tuple, kwargs: dict, result: object) -> None:
    return None


#: (label, module, attribute path, row key) of every wrapped function.
#: Kernels are the numeric hot spots inside each stage; the protocol and
#: identity-scoring rows carry the request id or the batch size, which
#: the span tree does not record in every serving mode.
WRAPPED = (
    ("displacement_from_pilot", "repro.core.trajectory_recovery", "displacement_from_pilot", _no_key),
    ("estimate_heading", "repro.sensors.fusion", "OrientationFilter.estimate_heading", _no_key),
    ("fit_circle_2d", "repro.core.trajectory_recovery", "fit_circle_2d", _no_key),
    ("extract_sweep_trace", "repro.core.soundfield", "extract_sweep_trace", _no_key),
    ("delta_features", "repro.core.soundfield", "delta_features", _no_key),
    ("soundfield_svm", "repro.ml.svm", "LinearSVM.decision_function", _no_key),
    ("magnetic_signature", "repro.core.magnetic", "magnetic_signature", _no_key),
    ("extract_voice", "repro.core.identity", "extract_voice", _no_key),
    ("mfcc_extract", "repro.dsp.mel", "MFCCExtractor.extract_with_cmvn", _no_key),
    ("llr_score", "repro.asv.verifier", "llr_score", _frames),
    ("llr_score", "repro.asv.verifier", "llr_score_batch", _frames),
    ("llr_score", "repro.asv.verifier", "llr_score_multi", _frames),
    ("identity.score", "repro.core.identity", "IdentityVerifier.verify", _captures),
    ("identity.score", "repro.core.identity", "IdentityVerifier.verify_batch", _captures),
    ("identity.score", "repro.core.identity", "IdentityVerifier.verify_multi", _captures),
    ("protocol.decode", "repro.server.gateway", "decode_request_full", _decoded_request_id),
    ("protocol.decode", "repro.server.shard", "decode_request_full", _decoded_request_id),
    ("protocol.encode_decision", "repro.server.gateway", "encode_decision", _encoded_request_id),
    ("protocol.encode_decision", "repro.server.shard", "encode_decision", _encoded_request_id),
)

KERNELS = tuple(dict.fromkeys(label for label, *_ in WRAPPED if "." not in label))
#: Ledger entries printed in the table but not reported: the hand-off
#: exists only on the sharded workload, the request count is context.
TABLE_ONLY = ("shard.handoff_p50_ms", "trace.requests")

#: One timed call: (label, start wall-clock s, duration s, pid, key).
Call = Tuple[str, float, float, int, object]


class CallLedger:
    """Timing wrappers around public functions, across forked shards.

    :meth:`install` patches each function in :data:`WRAPPED` where its
    callers look it up; :meth:`uninstall` restores them.  A process forked
    by :mod:`multiprocessing` while the wrappers are installed starts an
    empty ledger and writes it to ``dump_dir`` when it exits;
    :meth:`collect` merges those files with this process's rows.
    """

    def __init__(self, dump_dir: Path):
        self.dump_dir = dump_dir
        self.calls: List[Call] = []
        self._originals: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        for label, module_name, path, key in WRAPPED:
            owner: object = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._timed(label, original, key))
        multiprocessing.util.register_after_fork(self, CallLedger._after_fork)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _timed(
        self, label: str, fn: Callable, key: Callable[[tuple, dict, object], object]
    ) -> Callable:
        @functools.wraps(fn)
        def timed(*args: object, **kwargs: object) -> object:
            start = time.time()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            self.calls.append((label, start, elapsed, os.getpid(), key(args, kwargs, result)))
            return result

        return timed

    def _after_fork(self) -> None:
        if not self._originals:
            return
        self.calls = []
        multiprocessing.util.Finalize(self, self._dump, exitpriority=10)

    def _dump(self) -> None:
        path = self.dump_dir / f"calls-{os.getpid()}.json"
        path.write_text(json.dumps(self.calls))

    def collect(self) -> List[Call]:
        """This process's rows plus those of every exited child."""
        calls = list(self.calls)
        for path in sorted(self.dump_dir.glob("calls-*.json")):
            calls.extend(tuple(row) for row in json.loads(path.read_text()))  # type: ignore[misc]
            path.unlink()
        self.dump_dir.rmdir()
        return calls


def _union(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    covered = lo
    for a, b in sorted(intervals):
        a, b = max(a, covered), min(b, hi)
        if b > a:
            total += b - a
            covered = b
    return total


def _end(span) -> float:
    return span.start_wall + (span.duration_s or 0.0)


def _ms_p(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q) * 1e3) if values else 0.0


def per_layer(
    traces: List[list],
    calls: List[Call],
    window: Tuple[float, float],
    counters: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of the requests whose span starts in ``window``.

    ``window`` is in wall-clock seconds; ``counters`` are the traced
    gateway's ``metrics_summary()["counters"]``.  Keys that only exist in
    one serving mode (``shard.handoff_p50_ms``) are present only there.
    """
    w0, w1 = window
    spans_by_id = {s.span_id: s for trace in traces for s in trace}
    windowed = [c for c in calls if w0 <= c[1] < w1]
    pid_of = {c[4]: c[3] for c in windowed if c[0] == "protocol.decode"}
    identity_calls: Dict[int, List[Call]] = {}
    for c in windowed:
        if c[0] == "identity.score":
            identity_calls.setdefault(c[3], []).append(c)
    protocol_calls: Dict[object, List[Call]] = {}
    for c in calls:
        if c[0].startswith("protocol."):
            protocol_calls.setdefault(c[4], []).append(c)

    queue_wait: List[float] = []
    self_s: List[float] = []
    unattributed: List[float] = []
    identity_wait: List[float] = []
    handoff: List[float] = []
    detection_wall: List[float] = []
    detection_work = 0.0
    stage_runs: Dict[str, List[float]] = {name: [] for name in STAGES}
    stage_skips = {name: 0 for name in STAGES}
    early_exits = 0
    shard_counts: Counter = Counter()
    n_requests = 0
    for trace in traces:
        root = next((s for s in trace if s.parent_id is None and s.name == "request"), None)
        if root is None or root.status != "ok" or not w0 <= root.start_wall < w1:
            continue
        n_requests += 1
        lo, hi = root.start_wall, _end(root)
        request_id = root.attrs.get("request_id")
        timed = [s for s in trace if s is not root and s.status != "skipped" and s.duration_s]
        intervals = [(s.start_wall, _end(s)) for s in timed]
        intervals += [
            (c[1], c[1] + c[2])
            for c in protocol_calls.get(request_id, ())
            if lo <= c[1] <= hi
        ]
        shard = next((s for s in timed if s.name == "shard.process"), None)
        if shard is not None:
            # The parent's hand-off into the shard is the sharded queue.
            intervals.append((lo, shard.start_wall))
            queue_wait.append(shard.start_wall - lo)
            handoff.append(root.duration_s - shard.duration_s)
        else:
            queue_wait.extend(s.duration_s for s in timed if s.name == "queue")
        shard_counts[root.attrs.get("shard_id")] += 1
        own = max(root.duration_s - _union(intervals, lo, hi), 0.0)
        self_s.append(own)
        unattributed.append(own / root.duration_s)

        detection = [s for s in timed if s.name in {f"stage.{n}" for n in DETECTION}]
        if detection:
            # A union, not first start to last end: the cascade runs the
            # identity gate between the magnetic gate and the tail.
            detection_wall.append(_union(((s.start_wall, _end(s)) for s in detection), lo, hi))
            detection_work += sum(s.duration_s for s in detection)
        for s in trace:
            name = s.name[len("stage."):] if s.name.startswith("stage.") else None
            if name not in stage_runs:
                continue
            if s.status == "skipped":
                stage_skips[name] += 1
            elif s.duration_s:
                stage_runs[name].append(s.duration_s)
        if any(s.status == "skipped" for s in trace):
            early_exits += 1

        ident = next((s for s in timed if s.name == "stage.identity"), None)
        if ident is not None:
            batch = next(
                (s for s in timed if s.name == "identity.batch" and s.parent_id == ident.span_id),
                spans_by_id.get(ident.attrs.get("batch_span_id", "")),
            )
            if batch is not None:
                scoring = batch.duration_s or 0.0
            else:  # a shard scores identity inline, without a batcher
                scoring = _union(
                    ((c[1], c[1] + c[2]) for c in identity_calls.get(pid_of.get(request_id, -1), ())),
                    ident.start_wall,
                    _end(ident),
                )
            identity_wait.append(ident.duration_s - scoring)

    def calls_of(label: str) -> List[Call]:
        return [c for c in windowed if c[0] == label]

    metrics: Dict[str, float] = {
        "protocol.decode_p50_ms": _ms_p([c[2] for c in calls_of("protocol.decode")], 50),
        "protocol.encode_decision_p50_ms": _ms_p(
            [c[2] for c in calls_of("protocol.encode_decision")], 50
        ),
        "gateway.queue_wait_p50_ms": _ms_p(queue_wait, 50),
        "gateway.queue_wait_p95_ms": _ms_p(queue_wait, 95),
        "gateway.identity_wait_p50_ms": _ms_p(identity_wait, 50),
        "gateway.identity_batch_size_mean": float(
            np.mean([c[4] for c in calls_of("identity.score")] or [0.0])
        ),
        "gateway.self_p50_ms": _ms_p(self_s, 50),
        "gateway.refused": float(
            sum(
                counters.get(name, 0)
                for name in (
                    "rejected_queue_full",
                    "protocol_errors",
                    "identity_errors",
                    "shard_errors",
                    "requests_failed_closed",
                )
            )
        ),
        "scheduler.detection_wall_p50_ms": _ms_p(detection_wall, 50),
        "scheduler.detection_parallelism": (
            detection_work / sum(detection_wall) if detection_wall else 0.0
        ),
        "scheduler.timeouts": float(counters.get("component_timeouts", 0)),
        "scheduler.retries": float(counters.get("component_retries", 0)),
        "router.max_shard_share": (
            max(shard_counts.values()) / n_requests if n_requests else 0.0
        ),
        "cascade.early_exit_ratio": early_exits / n_requests if n_requests else 0.0,
    }
    for name in STAGES:
        metrics[f"cascade.runs.{name}"] = float(len(stage_runs[name]))
        metrics[f"cascade.skips.{name}"] = float(stage_skips[name])
    for name in STAGES:
        metrics[f"stage.{name}_p50_ms"] = _ms_p(stage_runs[name], 50)
        metrics[f"stage.{name}_busy_s"] = float(sum(stage_runs[name]))
    for label in KERNELS:
        rows = calls_of(label)
        metrics[f"kernel.{label}_p50_ms"] = _ms_p([c[2] for c in rows], 50)
        metrics[f"kernel.{label}_calls"] = float(len(rows))
    metrics["kernel.llr_score_rows_per_call"] = float(
        np.mean([c[4] for c in calls_of("llr_score")] or [0.0])
    )
    metrics["trace.unattributed_share"] = (
        float(statistics.median(unattributed)) if unattributed else 0.0
    )
    if handoff:
        metrics["shard.handoff_p50_ms"] = _ms_p(handoff, 50)
    metrics["trace.requests"] = float(n_requests)
    return metrics


def write_jsonl(path: Path, traces: List[list], calls: List[Call]) -> None:
    """Spans and timed calls, one JSON object per line."""
    with path.open("w") as fh:
        for trace in traces:
            for span in trace:
                fh.write(json.dumps(span.to_dict(), default=str) + "\n")
        for label, start, duration, pid, key in calls:
            row = {"name": f"call.{label}", "start_wall": start, "duration_s": duration,
                   "attrs": {"pid": pid, "key": key}}
            fh.write(json.dumps(row) + "\n")
