#!/usr/bin/env python3
"""Serving benchmark: the verification gateway under four traffic mixes.

Drives the program only through its public API -- ``build_world``,
``encode_request``, ``create_gateway``, ``Gateway.submit``,
``decode_decision`` and ``decision_fingerprint`` -- and checks every
decision against a reference pass::

    python3 benchmarks/serving/bench.py --workload genuine_closed --seed 7 --seconds 8 --trace 0

``--trace 1`` runs the same workload with the program's tracer and the
kernel timing wrappers of ``ledger.py`` attached and reports the
per-layer ledger instead.  Without ``--workload`` every workload runs,
each in a fresh process.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full result of each run, table-only metrics included,
is also written to ``benchmarks/serving/out/``.  The exit code is 1 when
any decision differs from its reference.  README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

import ledger  # noqa: E402
from repro.attacks import ReplayAttack  # noqa: E402
from repro.devices import Loudspeaker, get_loudspeaker  # noqa: E402
from repro.errors import ConfigurationError  # noqa: E402
from repro.experiments import build_world  # noqa: E402
from repro.experiments.world import attack_capture, genuine_capture  # noqa: E402
from repro.obs.trace import Tracer  # noqa: E402
from repro.server import (  # noqa: E402
    GatewayConfig,
    create_gateway,
    decision_fingerprint,
    decisions_checksum,
    decode_decision,
    decode_request_full,
    encode_request,
)

DEFAULT_SEED = 7
DEFAULT_SECONDS = 8
#: Each measured gateway serves this long before its window opens.  The
#: reference pass has already warmed the sound-field LRU and the lazily
#: built kernels; this only brings the gateway's own pools to steady state.
WARMUP_S = 1.0
#: How long to wait for outstanding requests after a window closes.
DRAIN_TIMEOUT_S = 60.0
#: The gateway's latency SLO (``GatewayConfig.slo_latency_threshold_s``).
SLO_S = GatewayConfig().slo_latency_threshold_s
#: Gateway starts per run; ``setup_s`` reports their median.
GATEWAY_STARTS = 3

#: The trained deployment every run serves.  ``--seed`` generates the
#: traffic, not the world: worlds trained from different seeds differ in
#: accuracy by more than the benchmark's bounds (README.md).
WORLD_SEED = 7
#: Pool size: each frame is simulated and encoded before timing starts,
#: and the whole run must fit the benchmark's time budget (README.md).
GENUINE_PER_USER = 6
#: Three loudspeakers the magnetic stage catches, and one earphone whose
#: weak magnet lets the replay reach the sound-field stage.
REPLAY_SPEAKERS = (
    "Logitech LS21",
    "Pioneer SP-FS52",
    "Sony SRSX2/BLK",
    "Apple EarPods MD827LL/A",
)
REPLAYS_PER_SPEAKER = 2
#: Share of replay requests in the mixed traffic.
REPLAY_SHARE = 0.3


@dataclass(frozen=True)
class Workload:
    """One traffic mix: which frames, how they arrive, which gateway."""

    name: str
    #: ``"genuine"``, ``"replay"`` or ``"mixed"``.
    traffic: str
    #: Most requests outstanding at once (the closed window).
    in_flight: int
    #: ``GatewayConfig`` fields.
    config: Dict[str, object]
    #: Poisson arrival rate of an open loop; 0 makes a closed loop.
    rate_rps: float = 0.0

    @property
    def open_loop(self) -> bool:
        return self.rate_rps > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("genuine_closed", "genuine", 1, {"request_workers": 2}),
        Workload("genuine_burst", "genuine", 8, {"request_workers": 2}),
        Workload(
            "mixed_open",
            "mixed",
            8,
            {"request_workers": 2, "cascade": True},
            rate_rps=8.0,
        ),
        Workload("attack_flood_sharded", "replay", 8, {"shards": 2, "cascade": True}),
    )
}


@dataclass(frozen=True)
class Frame:
    """One encoded request of the pool and what it should be decided."""

    request: bytes
    claimed: str
    genuine: bool


@dataclass
class Inputs:
    """Everything a run derives from its seed before any timing starts."""

    world: object
    pool: List[Frame]
    #: Pool index of the k-th request; a closed loop cycles through it.
    order: List[int]
    #: Due offsets (s) of an open loop's requests; empty for closed loops.
    offsets: List[float]
    world_build_s: float
    pool_gen_s: float

    def digest(self) -> Dict[str, str]:
        pool = hashlib.sha256(b"".join(f.request for f in self.pool)).hexdigest()
        schedule = hashlib.sha256(
            np.asarray(self.order, dtype=np.int64).tobytes()
            + np.asarray(self.offsets, dtype=np.float64).tobytes()
        ).hexdigest()
        return {"pool": pool, "schedule": schedule}


def make_pool(world, seed: int, traffic: str) -> List[Frame]:
    """The encoded frame pool, genuine frames first, then replays.

    Every frame draws from its own generator seeded by ``(seed, kind,
    index)``, so a frame is the same whichever workload builds it.
    """
    users = sorted(world.users)
    frames: List[Frame] = []
    if traffic in ("genuine", "mixed"):
        for i in range(GENUINE_PER_USER * len(users)):
            world.rng = np.random.default_rng([seed, 0, i])
            user = users[i % len(users)]
            capture = genuine_capture(world, user, 0.05)
            frames.append(Frame(encode_request(capture, user, f"g{i:02d}"), user, True))
    if traffic in ("replay", "mixed"):
        for j in range(REPLAYS_PER_SPEAKER * len(REPLAY_SPEAKERS)):
            world.rng = np.random.default_rng([seed, 1, j])
            victim = users[j % len(users)]
            speaker = Loudspeaker(
                get_loudspeaker(REPLAY_SPEAKERS[j // REPLAYS_PER_SPEAKER]), np.zeros(3)
            )
            # The stolen recording is the victim's enrolment recording, as
            # in the repository's replay tests (README.md).
            stolen = world.user(victim).enrolment_waveforms[-1]
            attempt = ReplayAttack(speaker).prepare(
                stolen, world.synthesizer.sample_rate, victim
            )
            capture = attack_capture(world, attempt, 0.05)
            frames.append(Frame(encode_request(capture, victim, f"r{j:02d}"), victim, False))
    return frames


def make_schedule(
    workload: Workload, pool: Sequence[Frame], seed: int, window_s: float
) -> Tuple[List[int], List[float]]:
    """Request order and, for an open loop, due offsets from the warm-up start.

    The open loop places exactly ``rate * duration`` arrivals uniformly in
    the warm-up and in the window -- a Poisson process conditioned on its
    count -- so the offered load is the same for every seed.
    """
    if not workload.open_loop:
        return list(range(len(pool))), []
    rng = np.random.default_rng([seed, 2])
    offsets = np.concatenate(
        [
            np.sort(rng.uniform(0.0, WARMUP_S, round(workload.rate_rps * WARMUP_S))),
            WARMUP_S
            + np.sort(rng.uniform(0.0, window_s, round(workload.rate_rps * window_s))),
        ]
    )
    genuine = [i for i, f in enumerate(pool) if f.genuine]
    replay = [i for i, f in enumerate(pool) if not f.genuine]
    turns = {True: itertools.count(), False: itertools.count()}
    order = []
    for is_replay in rng.random(offsets.size) < REPLAY_SHARE:
        kind = replay if is_replay else genuine
        order.append(kind[next(turns[bool(is_replay)]) % len(kind)])
    return order, offsets.tolist()


def prepare(workload: Workload, seed: int, window_s: float) -> Inputs:
    t0 = time.perf_counter()
    world = build_world(WORLD_SEED, n_users=3, enrol_repetitions=10, background_speakers=6)
    t1 = time.perf_counter()
    pool = make_pool(world, seed, workload.traffic)
    t2 = time.perf_counter()
    order, offsets = make_schedule(workload, pool, seed, window_s)
    return Inputs(world, pool, order, offsets, t1 - t0, t2 - t1)


def reference_pass(
    workload: Workload, inputs: Inputs
) -> Tuple[List[str], List[dict], List[float], List[str]]:
    """Reference decisions from one sequential pass through fresh gateways.

    Returns each frame's decision fingerprint and decoded decision, the
    start-to-first-decision times of :data:`GATEWAY_STARTS` gateways, and
    the frames whose verdict differs from strict ``DefenseSystem.verify``.
    """
    system = inputs.world.system
    config = GatewayConfig(**workload.config)
    starts: List[float] = []
    for _ in range(GATEWAY_STARTS - 1):
        gateway, _, elapsed = _start(system, config, inputs.pool[0])
        gateway.close()
        starts.append(elapsed)
    gateway, first, elapsed = _start(system, config, inputs.pool[0])
    starts.append(elapsed)
    decisions: List[dict] = []
    disagreements: List[str] = []
    with gateway:
        for i, frame in enumerate(inputs.pool):
            future = gateway.submit(frame.request) if i else None
            # The strict check runs while the request is in flight: the
            # system is thread-safe and its decisions do not depend on
            # what else runs.
            capture, claimed, request_id = decode_request_full(frame.request)
            verdict = system.verify(capture, claimed).accepted
            answer = future.result(DRAIN_TIMEOUT_S) if future else first
            decisions.append(decode_decision(answer))
            if verdict != decisions[-1]["accepted"]:
                disagreements.append(request_id)
    return [decision_fingerprint(d) for d in decisions], decisions, starts, disagreements


def _start(system, config: GatewayConfig, frame: Frame):
    """A fresh gateway, its first answer, and the time to that answer."""
    t0 = time.perf_counter()
    gateway = create_gateway(system, config)
    try:
        first = gateway.submit(frame.request).result(DRAIN_TIMEOUT_S)
    except BaseException:
        gateway.close()
        raise
    return gateway, first, time.perf_counter() - t0


@dataclass
class Request:
    frame: int
    #: When the latency clock starts: the due time of an open-loop
    #: arrival, the submit time of a closed-loop request.
    start: float
    #: How late the generator submitted: after the due time (open loop)
    #: or after a slot freed (closed loop).
    lag: float
    done: float = 0.0
    future: Optional[Future] = None
    refused: bool = False


@dataclass
class Served:
    """What one measured gateway did, window bounds included."""

    requests: List[Request]
    window: Tuple[float, float]
    wall_window: Tuple[float, float]
    #: The gateway's ``metrics_summary()`` counters after the drain.
    counters: Dict[str, float]


def drive(gateway, workload: Workload, inputs: Inputs, window_s: float) -> Served:
    """Send warm-up plus window of load from this thread, then drain.

    A semaphore of ``in_flight`` slots is the closed window; done
    callbacks only record a timestamp and free the slot.
    """
    slots = threading.Semaphore(workload.in_flight)
    freed: Deque[float] = collections.deque()
    requests: List[Request] = []

    def on_done(request: Request):
        def callback(_future: Future) -> None:
            request.done = time.perf_counter()
            freed.append(request.done)
            slots.release()

        return callback

    t0 = time.perf_counter()
    wall0 = time.time()
    window_start = t0 + WARMUP_S
    end = window_start + window_s
    freed.extend([t0] * workload.in_flight)
    for k in itertools.count():
        if workload.open_loop:
            if k >= len(inputs.offsets):
                break
            due = t0 + inputs.offsets[k]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        slots.acquire()
        slot_free = freed.popleft()
        now = time.perf_counter()
        if not workload.open_loop:
            if now >= end:
                slots.release()
                break
            due = slot_free
        frame = inputs.order[k % len(inputs.order)]
        request = Request(frame, due if workload.open_loop else now, now - due)
        requests.append(request)
        try:
            request.future = gateway.submit(inputs.pool[frame].request)
        except ConfigurationError:
            request.refused = True
            request.done = time.perf_counter()
            freed.append(request.done)
            slots.release()
            continue
        request.future.add_done_callback(on_done(request))
    wait([r.future for r in requests if r.future is not None], timeout=DRAIN_TIMEOUT_S)
    return Served(
        requests,
        (window_start, end),
        (wall0 + WARMUP_S, wall0 + WARMUP_S + window_s),
        gateway.metrics_summary()["counters"],
    )


def _decision(request: Request) -> Optional[dict]:
    """The decoded decision, or None if the request got none."""
    future = request.future
    if request.refused or future is None or not future.done() or future.exception():
        return None
    return decode_decision(future.result())


def end_to_end(
    served: Served, inputs: Inputs, fingerprints: Sequence[str]
) -> Tuple[Dict[str, float], int, int, int]:
    """End-to-end metrics of one window, plus attempted/failed/mismatched."""
    lo, hi = served.window
    attempted = failed = mismatched = 0
    last_answer = lo
    latencies: List[float] = []
    lags: List[float] = []
    good = 0
    verdicts = {True: [0, 0], False: [0, 0]}  # genuine? -> [right, answered]
    for request in served.requests:
        decision = _decision(request)
        correct = (
            decision is not None
            and decision_fingerprint(decision) == fingerprints[request.frame]
        )
        if decision is not None and not correct:
            mismatched += 1
        if not lo <= request.start < hi:
            continue
        attempted += 1
        lags.append(request.lag)
        if not correct:
            failed += 1
            continue
        latency = request.done - request.start
        latencies.append(latency)
        last_answer = max(last_answer, request.done)
        good += latency < SLO_S
        genuine = inputs.pool[request.frame].genuine
        verdicts[genuine][0] += decision["accepted"] == genuine
        verdicts[genuine][1] += 1
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    percentile = {
        q: float(np.percentile(latencies, q) * 1e3) if latencies else 0.0
        for q in (50, 80, 90, 95)
    }
    metrics = {
        # Correct answers to the window's requests over the time it took
        # to give them: the window plus the drain of its last requests.
        "throughput_rps": len(latencies) / (last_answer - lo) if latencies else 0.0,
        "latency_p50_ms": percentile[50],
        # The highest percentile with ten samples beyond it on every
        # workload at the default window (README.md).
        "latency_p80_ms": percentile[80],
        "answer_rate": len(latencies) / attempted if attempted else 0.0,
        "peak_rss_mb": (usage + children) / 1024.0,
        # Reported in the table only: zero, undefined or too few samples
        # on some workloads.
        "latency_p90_ms": percentile[90],
        "latency_p95_ms": percentile[95],
        "slo_goodput": good / attempted if attempted else 0.0,
        "error_rate": failed / attempted if attempted else 0.0,
        "latency_samples": float(len(latencies)),
        "loadgen.lag_p95_ms": float(np.percentile(lags, 95) * 1e3) if lags else 0.0,
    }
    for name, (right, answered) in (
        ("genuine_accept_rate", verdicts[True]),
        ("attack_reject_rate", verdicts[False]),
    ):
        if answered:
            metrics[name] = right / answered
    metrics["latencies_ms"] = [x * 1e3 for x in latencies]
    return metrics, attempted, failed, mismatched


def serve(workload: Workload, inputs: Inputs, window_s: float, tracer=None) -> Served:
    gateway = create_gateway(
        inputs.world.system, GatewayConfig(**workload.config), tracer=tracer
    )
    try:
        return drive(gateway, workload, inputs, window_s)
    finally:
        gateway.close()


END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p80_ms", "ms"),
    ("answer_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_parallelism")):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, window_s: float, trace: bool) -> int:
    """One workload in this process; prints the table and the JSON line."""
    workload = WORKLOADS[name]
    # A traced run serves two halves with the same schedule: untraced, to
    # price the tracing, then traced.
    window_s = window_s / 2.0 if trace else window_s
    inputs = prepare(workload, seed, window_s)
    t0 = time.perf_counter()
    fingerprints, decisions, starts, disagreements = reference_pass(workload, inputs)
    result: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "window_s": window_s,
        "trace": int(trace),
        "reference_checksum": decisions_checksum(decisions),
        "digests": inputs.digest(),
        "world_build_s": inputs.world_build_s,
        "pool_gen_s": inputs.pool_gen_s,
        "reference_s": time.perf_counter() - t0,
        "gateway_start_s": starts,
    }
    setup_s = inputs.world_build_s + statistics.median(starts)
    if not trace:
        served = serve(workload, inputs, window_s)
        metrics, attempted, failed, mismatched = end_to_end(served, inputs, fingerprints)
        result["latencies_ms"] = metrics.pop("latencies_ms")
        metrics["setup_s"] = setup_s
        report = {key: metrics[key] for key, _ in END_TO_END}
        units = dict(END_TO_END)
    else:
        plain = serve(workload, inputs, window_s)
        plain_metrics, *plain_counts = end_to_end(plain, inputs, fingerprints)
        calls = ledger.CallLedger(OUT_DIR / f"calls-{os.getpid()}")
        tracer = Tracer(max_completed=1 << 20)
        calls.install()
        try:
            served = serve(workload, inputs, window_s, tracer=tracer)
        finally:
            calls.uninstall()
        rows = calls.collect()
        traces = tracer.drain_completed()
        traced_metrics, *traced_counts = end_to_end(served, inputs, fingerprints)
        attempted, failed, mismatched = (a + b for a, b in zip(plain_counts, traced_counts))
        metrics = ledger.per_layer(traces, rows, served.wall_window, served.counters)
        metrics["loadgen.lag_p95_ms"] = traced_metrics["loadgen.lag_p95_ms"]
        metrics["loadgen.pool_gen_s"] = inputs.pool_gen_s
        metrics["trace.overhead_ratio"] = (
            traced_metrics["latency_p50_ms"] / plain_metrics["latency_p50_ms"]
            if plain_metrics["latency_p50_ms"]
            else 0.0
        )
        result["untraced"] = plain_metrics
        result["traced"] = traced_metrics
        ledger.write_jsonl(OUT_DIR / f"trace-{name}-seed{seed}.jsonl", traces, rows)
        report = {k: v for k, v in metrics.items() if k not in ledger.TABLE_ONLY}
        units = {key: _unit(key) for key in report}
    correct = mismatched == 0 and not disagreements
    result.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        mismatched=mismatched,
        verify_disagreements=disagreements,
        metrics=metrics,
        setup_s=setup_s,
    )
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    for key in sorted(metrics):
        print(f"{name:22s} {key:40s} {metrics[key]:14.4f}")
    if metrics.get("loadgen.lag_p95_ms", 0.0) > 10.0:
        print(f"warning: load generator lag p95 {metrics['loadgen.lag_p95_ms']:.1f} ms "
              "exceeds 10 ms; this run under-drives the gateway", file=sys.stderr)
    for request_id in disagreements:
        print(f"error: reference verdict of {request_id} differs from DefenseSystem.verify",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report.items()},
    }), flush=True)
    return 0 if correct else 1


def run_all(seed: int, window_s: float, trace: bool) -> int:
    """Every workload in a fresh child process; a combined JSON line."""
    merged: Dict[str, object] = {}
    correct, attempted, failed, code = True, 0, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(window_s), "--trace", str(int(trace))],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        if not lines:
            correct = False
            continue
        row = json.loads(lines[-1])
        correct = correct and row["correct"]
        attempted += row["attempted"]
        failed += row["failed"]
        for key, value in row["metrics"].items():
            merged[f"{name}.{key}"] = value
    if not trace:
        _write_bench_summary(seed, window_s)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}), flush=True)
    return code


def _write_bench_summary(seed: int, window_s: float) -> None:
    """``BENCH_serving.json`` through the repository's bench harness."""
    sys.path.insert(0, str(BENCH_DIR.parent))
    from harness import write_bench

    results = {
        name: json.loads((OUT_DIR / f"{name}-seed{seed}-trace0.json").read_text())
        for name in WORKLOADS
    }
    write_bench(
        "serving",
        latency_summaries={
            name: {
                "median_ms": r["metrics"]["latency_p50_ms"],
                "p80_ms": r["metrics"]["latency_p80_ms"],
            }
            for name, r in results.items()
        },
        throughput_rps={name: r["metrics"]["throughput_rps"] for name, r in results.items()},
        # Keyed by seed: a baseline only compares against the same inputs.
        decision_checksums={
            f"{name}@seed{seed}": r["reference_checksum"] for name, r in results.items()
        },
        extra={"window_s": window_s, "seed": seed},
    )


def use_out_dir() -> None:
    """Keep everything a run writes, compiled kernels included, in OUT_DIR."""
    OUT_DIR.mkdir(exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(OUT_DIR)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", "--window", type=float, default=DEFAULT_SECONDS,
                        help="measured window per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    use_out_dir()
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
