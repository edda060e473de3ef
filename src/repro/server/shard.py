"""Shard worker process: the verification loop of one gateway shard.

A :class:`~repro.server.gateway.ShardedGateway` forks N of these and
places each request on one of them with a
:class:`~repro.server.router.ConsistentHashRouter`.  The worker inherits
the trained :class:`~repro.core.pipeline.DefenseSystem` by fork
copy-on-write (the models are never pickled or re-trained), so it can
decide any speaker, and builds **all of its mutable serving state after
the fork** — metrics registry, job scheduler, tracer — so no parent-held
lock, RNG, or cache is ever shared across the process boundary.  The
``fork-safety`` static-analysis rule enforces this shape.

Request frames arrive pickled-once over the shard's bounded work queue
and are decoded here; decisions travel back — as encoded decision
frames plus the :class:`~repro.core.decision.VerificationReport` and the
shard's trace-span fragment — over the shard's **private result pipe**.
Each pipe has exactly one writer, so no cross-process lock guards it: a
shard SIGKILLed mid-send cannot poison a shared semaphore (the way a
shared result queue's write lock can), and the parent instead observes a
clean EOF.  A shard runs the same executor as every other serving mode
(:func:`~repro.core.pipeline.execute`), so its decision frame is
byte-identical to theirs.

Wire messages (tuples; the queues pickle them):

    work:    ("request", seq, frame, trace_ctx)   trace_ctx: (trace_id,
                                                  parent_span_id) | None
             ("metrics", seq)                     → metrics snapshot
             ("ping", seq)                        → liveness probe
             ("stop",)                            drain + exit
    result:  ("decision", seq, shard_id, frame, report, span_rows,
              service_s)                          service_s: decode to
                                                  encode, in seconds
             ("decision_error", seq, shard_id, kind, message)
             ("metrics", seq, shard_id, snapshot)
             ("pong", seq, shard_id)
             ("stopped", shard_id)
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Tuple

from repro.analysis import sanitize
from repro.core.config import GatewayConfig
from repro.core.decision import VerificationReport
from repro.core.pipeline import DefenseSystem, execute
from repro.errors import ProtocolError
from repro.obs.trace import NULL_TRACER, Span, Tracer
from repro.server.backend import decision_fields, observe_request, scheduler_fan_out
from repro.server.metrics import MetricsRegistry
from repro.server.protocol import decode_request_full, encode_decision
from repro.server.scheduler import JobScheduler

__all__ = ["ShardWorker", "shard_main", "CHAOS_EXIT_CODE", "CHAOS_METADATA_KEY"]

#: Exit status of a chaos-killed shard (distinguishable from a real crash).
CHAOS_EXIT_CODE = 13

#: Request-metadata key that triggers the in-band chaos kill (only when
#: the gateway was built with ``GatewayConfig(chaos_hooks=True)``).
CHAOS_METADATA_KEY = "__chaos_exit__"


class ShardWorker:
    """Per-process serving state + the request loop body of one shard.

    Everything mutable is constructed in ``__init__``, which runs in the
    child process after the fork.
    """

    def __init__(self, shard_id: int, system: DefenseSystem, config: GatewayConfig):
        self.shard_id = shard_id
        self.system = system
        self.config = config
        self.metrics = MetricsRegistry()
        #: Real tracer used only for requests that arrive with a trace
        #: context; untraced requests run against the shared no-op, so
        #: they pay nothing (``self.tracer`` is swapped per request —
        #: safe because a shard serves one request at a time).
        self._span_tracer = Tracer()
        self.tracer: Tracer = NULL_TRACER
        self.scheduler = JobScheduler(workers=3)
        #: The sound-field LRU counts this process inherited at the fork:
        #: the shard reports only what it served itself.
        self._cache_at_start = system.soundfield_cache_stats.snapshot()
        self._fan_out = scheduler_fan_out(
            self.scheduler,
            config.component_timeout_s,
            config.component_retries,
            self.metrics,
        )

    def process(
        self, frame: bytes, trace_ctx: Optional[Tuple[str, str]]
    ) -> Tuple[bytes, VerificationReport, list, float]:
        """One request frame → (decision frame, report, spans, service
        seconds from decode to encode)."""
        t0 = time.perf_counter()
        self.tracer = self._span_tracer if trace_ctx is not None else NULL_TRACER
        root: Optional[Span] = None
        if trace_ctx is not None:
            trace_id, parent_span_id = trace_ctx
            root = self.tracer.remote_child(
                trace_id,
                parent_span_id,
                "shard.process",
                attrs={"shard_id": self.shard_id},
            )
        try:
            try:
                capture, claimed, request_id = decode_request_full(frame)
            except ProtocolError:
                self.metrics.increment("protocol_errors")
                if root is not None:
                    self.tracer.end(root, status="error")
                raise
            if self.config.chaos_hooks and capture.metadata.get(CHAOS_METADATA_KEY):
                os._exit(CHAOS_EXIT_CODE)
            t_decoded = time.perf_counter()
            if root is not None:
                root.set_attrs(
                    {
                        "request_id": request_id,
                        "claimed_speaker": claimed,
                        "mode": "cascade" if self.config.cascade else "strict",
                    }
                )
            report = execute(
                self.system,
                capture,
                claimed,
                cascade=self.config.cascade,
                fan_out=self._fan_out,
                parent=root,
                tracer=self.tracer,
            )
            t_executed = time.perf_counter()
            payload, evidence = decision_fields(report)
            decision_frame = encode_decision(
                report.accepted, payload, request_id=request_id, evidence=evidence
            )
            t_done = time.perf_counter()
            # The latency-SLO counters live shard-side, where ``total_s``
            # is measured, so the parent's merged registry sees each
            # request's verdict exactly once.
            observe_request(
                self.metrics,
                report,
                decode_s=t_decoded - t0,
                execute_s=t_executed - t_decoded,
                encode_s=t_done - t_executed,
                slo_threshold_s=self.config.slo_latency_threshold_s,
            )
            if root is not None:
                self.tracer.end(root)
        finally:
            spans = (
                [s.to_dict() for s in self.tracer.take_trace(trace_ctx[0])]
                if trace_ctx is not None
                else []
            )
        return decision_frame, report, spans, t_done - t0

    def metrics_snapshot(self) -> Dict[str, object]:
        """The registry snapshot the parent merges, with this shard's
        sound-field LRU counts as ``soundfield_cache_*`` counters."""
        snapshot = self.metrics.snapshot()
        cache = self.system.soundfield_cache_stats
        start = self._cache_at_start
        snapshot["counters"].update(  # type: ignore[union-attr]
            {
                "soundfield_cache_hits": cache.hits - start.hits,
                "soundfield_cache_misses": cache.misses - start.misses,
                "soundfield_cache_evictions": cache.evictions - start.evictions,
            }
        )
        return snapshot

    def close(self) -> None:
        self.scheduler.shutdown()


def shard_main(
    shard_id: int,
    system: DefenseSystem,
    config: GatewayConfig,
    work_queue: "object",
    result_conn: "object",
    stray_writers: "object" = (),
) -> None:
    """Entry point of a shard process: serve until the drain sentinel.

    The work queue is single-consumer FIFO, so every message enqueued
    before the ``("stop",)`` sentinel is served before the shard exits —
    that *is* the drain protocol.

    Results go back over this shard's private one-way pipe.  Only this
    process may hold its write end (``stray_writers`` are the *other*
    shards' ends this fork inherited — closed immediately), so the pipe
    needs no cross-process lock and the parent sees a prompt EOF if the
    shard dies.
    """
    for writer in stray_writers:  # type: ignore[attr-defined]
        writer.close()
    # Re-arm the sanitizers from the environment before any worker
    # state exists: fork inherits the parent's in-process flag, but an
    # explicit re-read keeps the child correct under any start method
    # and lets tests arm the whole tree via the env alone.
    if os.environ.get("REPRO_SANITIZE", "").strip().lower() not in (
        "",
        "0",
        "false",
        "off",
    ):
        sanitize.enable()
    worker = ShardWorker(shard_id, system, config)
    if sanitize.enabled():
        # Visible proof that arming crossed the fork: the parent reads
        # this counter back through the metrics control message.
        worker.metrics.increment("sanitize_armed")
    send = result_conn.send  # type: ignore[attr-defined]
    try:
        while True:
            message = work_queue.get()  # type: ignore[attr-defined]
            kind = message[0]
            if kind == "stop":
                send(("stopped", shard_id))
                return
            if kind == "ping":
                send(("pong", message[1], shard_id))
                continue
            if kind == "metrics":
                send(("metrics", message[1], shard_id, worker.metrics_snapshot()))
                continue
            if kind != "request":  # pragma: no cover - future message kinds
                continue
            _, seq, frame, trace_ctx = message
            try:
                decision_frame, report, span_rows, service_s = worker.process(
                    frame, trace_ctx
                )
            except ProtocolError as exc:
                send(("decision_error", seq, shard_id, "protocol", str(exc)))
                continue
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                send(("decision_error", seq, shard_id, "internal", repr(exc)))
                continue
            send(
                (
                    "decision",
                    seq,
                    shard_id,
                    decision_frame,
                    report,
                    span_rows,
                    service_s,
                )
            )
    finally:
        result_conn.close()  # type: ignore[attr-defined]
        worker.close()
