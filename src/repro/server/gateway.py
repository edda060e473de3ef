"""Concurrent verification gateway (the production serving path).

The paper's prototype serves one request at a time; this module turns the
same cascade into a gateway that accepts many request frames at once:

- requests flow through a **bounded work queue** drained by a
  configurable pool of request workers (backpressure instead of
  unbounded memory growth);
- each request runs the one executor,
  :func:`~repro.core.pipeline.execute`, with its machine-detection
  components fanned out on a shared
  :class:`~repro.server.scheduler.JobScheduler` with a **per-component
  execution timeout and bounded crash retry** — a hung or crashing
  component degrades to a scored rejection without stalling the request
  or its neighbours;
- identity is scored in the request worker, as in every other mode;
- per-user sound-field models come from the
  :class:`~repro.core.pipeline.DefenseSystem` LRU cache, so a hot user's
  model is rehydrated once, not per request;
- every stage records into a :class:`~repro.server.metrics.MetricsRegistry`
  (latency histograms, throughput and cache/timeout counters) so the
  Fig. 15 auth-time bench can be rerun against the gateway.

Decisions are bitwise-equal to the sequential
:class:`~repro.server.backend.VerificationServer` for the same frames:
every mode runs the same executor.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.analysis import lockset
from repro.core.config import GatewayConfig
from repro.core.decision import ComponentResult, VerificationReport
from repro.core.pipeline import DefenseSystem, execute
from repro.errors import ConfigurationError, ProtocolError
from repro.obs.abuse import AbuseDetector
from repro.obs.drift import DriftRegistry
from repro.obs.events import WideEvent, WideEventRecorder
from repro.obs.exporters import AuditJsonlExporter, prometheus_exposition
from repro.obs.provenance import DecisionRecord
from repro.obs.slo import SLOEngine
from repro.obs.trace import NULL_TRACER, Span, Tracer
from repro.server.backend import decision_fields, observe_request, scheduler_fan_out
from repro.server.blas import BlasThreadHold
from repro.server.metrics import MetricsRegistry
from repro.server.protocol import (
    KIND_TELEMETRY_REQUEST,
    decode_request_full,
    decode_telemetry_request,
    encode_decision,
    encode_telemetry_response,
    frame_kind,
    peek_request_meta,
)
from repro.server.router import ConsistentHashRouter
from repro.server.scheduler import JobScheduler, ShardSupervisor
from repro.server.shard import shard_main

__all__ = [
    "Gateway",
    "GatewayConfig",
    "ShardedGateway",
    "create_gateway",
]

#: Bound of each shard's work queue (per-shard backpressure).
SHARD_QUEUE_DEPTH = 32
#: How often the shard supervisor polls worker liveness (seconds).
HEALTH_CHECK_INTERVAL_S = 0.1


def _events_section(recorder: WideEventRecorder) -> Dict[str, object]:
    """The ``events`` telemetry payload: stats + the recent kept rows."""
    section = recorder.stats()
    section["recent"] = [e.to_dict() for e in recorder.recent()]
    return section


def _drift_section(drift: DriftRegistry) -> Dict[str, object]:
    """The ``drift`` telemetry payload: per-stage snapshots + alerts."""
    return {
        "stages": drift.snapshot(),
        "alerts": [str(a) for a in drift.alerts()],
    }


def _record_outcome(
    gateway: Union["Gateway", "ShardedGateway"],
    report: VerificationReport,
    request_id: str,
    trace_id: str,
    duration_s: float,
    queue_wait_s: float,
    shard_id: Optional[int] = None,
) -> Optional[str]:
    """Drift samples, audit row, abuse observation and wide event of one
    served report.

    Returns the exemplar id for the request's latency observation when
    tail sampling kept the event, else ``None``.
    """
    for name, result in report.components.items():
        gateway.drift.record(name, result.score)  # non-finite are filtered
    record = DecisionRecord.from_report(
        report,
        cascade_plan=gateway.system.cascade_plan,
        request_id=request_id,
        trace_id=trace_id,
    )
    if gateway.audit is not None:
        gateway.audit.write(record)
    identity = report.components.get("identity")
    gateway.abuse.observe(
        report.claimed_speaker, identity.score if identity is not None else None
    )
    event = WideEvent.from_record_row(
        record.to_dict(),
        duration_s=duration_s,
        queue_wait_s=queue_wait_s,
        shard_id=shard_id,
    )
    if gateway.events.record(event) is None:
        return None
    return event.trace_id or event.request_id or None


class _ServingTier:
    """What both serving tiers share: the observability sinks, request
    submission with its telemetry-scrape bypass, the synchronous
    wrappers, and the telemetry answer.

    Subclasses hand request frames to their workers in :meth:`_enqueue`,
    name the registry a scrape reads in :meth:`_registry`, and stop their
    workers in :meth:`_shutdown`.  From construction to :meth:`close` a
    tier holds BLAS at one thread (:mod:`repro.server.blas`): its stage
    threads already own the process's cores.
    """

    def __init__(
        self,
        system: DefenseSystem,
        config: GatewayConfig,
        tracer: Optional[Tracer],
        drift: Optional[DriftRegistry],
        audit: Optional[AuditJsonlExporter],
        slo: Optional[SLOEngine],
        abuse: Optional[AbuseDetector],
        events: Optional[WideEventRecorder],
    ):
        self.system = system
        self.config = config
        self.metrics = MetricsRegistry()
        #: Request tracer; the shared no-op by default, so serving pays
        #: nothing until a real tracer is attached.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Per-stage score-drift monitors (always on: a record is a lock
        #: and a ring-buffer write).
        self.drift = drift if drift is not None else DriftRegistry()
        #: Optional decision audit log (one JSONL row per decision).
        self.audit = audit
        #: SLO burn-rate engine, evaluated at scrape time over
        #: :meth:`_registry`.
        self.slo = slo if slo is not None else SLOEngine()
        #: Per-speaker probe detection (sticky flags, never decisions).
        self.abuse = abuse if abuse is not None else AbuseDetector()
        #: Tail-sampled wide events; in-memory by default, pass a
        #: recorder with a path to persist JSONL.
        self.events = (
            events
            if events is not None
            else WideEventRecorder(
                slow_threshold_s=config.slo_latency_threshold_s,
                alert_probe=lambda: self.abuse.has_alerts,
            )
        )
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        self._blas = BlasThreadHold()

    def submit(self, request_frame: bytes, block: bool = True) -> "Future[bytes]":
        """Hand one request frame to the workers; resolves to the
        decision frame.

        With ``block=False`` a full work queue raises
        :class:`~repro.errors.ConfigurationError` immediately instead of
        applying backpressure.

        Telemetry-request frames (see
        :func:`~repro.server.protocol.encode_telemetry_request`) are
        answered immediately — a metrics scrape never queues behind
        verification work and resolves to a telemetry response frame
        instead of a decision frame.
        """
        with self._lock:
            if self._closed:
                raise ConfigurationError("gateway has been closed")
        try:
            kind = frame_kind(request_frame)
        except ProtocolError:
            kind = 0  # malformed header: the request path surfaces it
        future: "Future[bytes]" = Future()
        if kind == KIND_TELEMETRY_REQUEST:
            try:
                future.set_result(self._handle_telemetry(request_frame))
            except ProtocolError as exc:
                self.metrics.increment("protocol_errors")
                future.set_exception(exc)
            return future
        self._enqueue(request_frame, future, block)
        return future

    def _enqueue(
        self, request_frame: bytes, future: "Future[bytes]", block: bool
    ) -> None:
        raise NotImplementedError

    def handle(self, request_frame: bytes) -> bytes:
        """Synchronous convenience wrapper (drop-in for the server)."""
        return self.submit(request_frame).result()

    def handle_many(self, request_frames: Sequence[bytes]) -> List[bytes]:
        """Submit a burst of frames; decision frames in request order."""
        futures = [self.submit(frame) for frame in request_frames]
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _registry(self) -> MetricsRegistry:
        """The whole-system registry a scrape reads."""
        return self.metrics

    def _summarize(
        self,
        registry: MetricsRegistry,
        stages: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> Dict[str, object]:
        """The summary section; ``stages`` is the scrape's stage report
        when the caller has already built it."""
        summary = registry.summary()
        summary["throughput_rps"] = registry.throughput()
        summary["windowed_throughput_rps"] = registry.windowed_throughput()
        if self.config.cascade:
            summary["stages"] = registry.stage_report() if stages is None else stages
        summary["drift"] = _drift_section(self.drift)
        return summary

    def metrics_summary(self) -> Dict[str, object]:
        """Registry summary plus throughput (and the cascade's stage
        report), with each tier's extras."""
        return self._summarize(self._registry())

    def _handle_telemetry(self, frame: bytes) -> bytes:
        """Answer a telemetry-scrape frame from the live registry."""
        sections, request_id = decode_telemetry_request(frame)
        registry = self._registry()
        # One stage report serves both the stages section and a cascade
        # gateway's summary.
        stages = registry.stage_report() if "stages" in sections else None
        telemetry: Dict[str, object] = {}
        for section in sections:
            if section == "summary":
                telemetry["summary"] = self._summarize(registry, stages)
            elif section == "prometheus":
                telemetry["prometheus"] = prometheus_exposition(registry)
            elif section == "stages":
                telemetry["stages"] = stages
            elif section == "drift":
                telemetry["drift"] = _drift_section(self.drift)
            elif section == "slo":
                telemetry["slo"] = self.slo.evaluate(registry)
            elif section == "abuse":
                telemetry["abuse"] = self.abuse.snapshot()
            elif section == "events":
                telemetry["events"] = _events_section(self.events)
            # Unknown sections are omitted so old clients can probe.
        self.metrics.increment("telemetry_scrapes")
        return encode_telemetry_response(telemetry, request_id)

    def close(self) -> None:
        """Stop serving (idempotent), then release the BLAS hold."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._shutdown()
        finally:
            self._blas.release()

    def _shutdown(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "_ServingTier":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Gateway(_ServingTier):
    """Concurrent front door over a trained :class:`DefenseSystem`.

    Usage::

        with Gateway(system, GatewayConfig(request_workers=8)) as gw:
            futures = [gw.submit(frame) for frame in frames]
            decisions = [decode_decision(f.result()) for f in futures]

    :meth:`handle` keeps the one-call synchronous shape of
    :class:`VerificationServer`, so a :class:`MobileClient` can be bound
    to a gateway unchanged.
    """

    def __init__(
        self,
        system: DefenseSystem,
        config: Optional[GatewayConfig] = None,
        tracer: Optional[Tracer] = None,
        drift: Optional[DriftRegistry] = None,
        audit: Optional[AuditJsonlExporter] = None,
        slo: Optional[SLOEngine] = None,
        abuse: Optional[AbuseDetector] = None,
        events: Optional[WideEventRecorder] = None,
    ):
        super().__init__(
            system,
            config or GatewayConfig(),
            tracer,
            drift,
            audit,
            slo,
            abuse,
            events,
        )
        if self.tracer.enabled:
            # DSP kernel spans then nest under the request's stage spans.
            self.system.set_tracer(self.tracer)
        # One thread per machine-detection component per request worker.
        self._scheduler = JobScheduler(workers=3 * self.config.request_workers)
        self._fan_out = scheduler_fan_out(
            self._scheduler,
            self.config.component_timeout_s,
            self.config.component_retries,
            self.metrics,
        )
        self._queue: (
            "queue.Queue[Optional[Tuple[bytes, Future, float, Optional[Span]]]]"
        ) = queue.Queue(maxsize=self.config.max_queue)
        # Instrument BEFORE the workers start: the lockset detector must
        # see every cross-thread access from the first request on.
        lockset.register(self)
        self._threads = [
            threading.Thread(
                target=self._request_worker, name=f"gateway-worker-{i}", daemon=True
            )
            for i in range(self.config.request_workers)
        ]
        for t in self._threads:
            t.start()

    def _enqueue(
        self, request_frame: bytes, future: "Future[bytes]", block: bool
    ) -> None:
        root = self.tracer.begin("request") if self.tracer.enabled else None
        item = (request_frame, future, time.monotonic(), root)
        try:
            self._queue.put(item, block=block)
        except queue.Full:
            if root is not None:
                root.set_attr("error", "queue full")
                self.tracer.end(root, status="error")
            self.metrics.increment("rejected_queue_full")
            raise ConfigurationError(
                f"gateway queue is full ({self.config.max_queue} requests)"
            ) from None
        self.metrics.increment("requests_submitted")

    # ------------------------------------------------------------------
    # Request pipeline
    # ------------------------------------------------------------------
    def _request_worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            frame, future, submitted_at, root = item
            try:
                waited = time.monotonic() - submitted_at
                self.metrics.observe("queue_s", waited)
                if root is not None:
                    self._retro_span(root, "queue", waited)
                self._process(frame, future, waited, root)
            except Exception as exc:  # noqa: BLE001 - surfaced via the future
                # A failing sink (the audit log's disk, say) fails this
                # request alone; the worker lives on to serve the next.
                self.metrics.increment("internal_errors")
                if not future.done():
                    if root is not None:
                        self.tracer.end(root, status="error")
                    future.set_exception(exc)
            finally:
                self._queue.task_done()

    def _retro_span(
        self,
        parent: Span,
        name: str,
        duration_s: float,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record an already-elapsed interval as a child span.

        The queue wait cannot run a span's own clock (no code executes
        while the request sits in the queue), so the measured duration is
        written in after the fact and the start is backdated to match.
        """
        span = self.tracer.child(parent, name, attrs)
        self.tracer.end(span)
        span.duration_s = duration_s
        span.start_wall -= duration_s

    def _process(
        self,
        frame: bytes,
        future: "Future[bytes]",
        waited: float,
        root: Optional[Span] = None,
    ) -> None:
        t0 = time.perf_counter()
        try:
            with self.tracer.span("decode", parent=root):
                capture, claimed, request_id = decode_request_full(frame)
        except ProtocolError as exc:
            self.metrics.increment("protocol_errors")
            if root is not None:
                root.set_attr("error", repr(exc))
                self.tracer.end(root, status="error")
            future.set_exception(exc)
            return
        t_decoded = time.perf_counter()
        if root is not None:
            root.set_attrs(
                {
                    "request_id": request_id,
                    "claimed_speaker": claimed,
                    "mode": "cascade" if self.config.cascade else "strict",
                }
            )
        try:
            report = execute(
                self.system,
                capture,
                claimed,
                cascade=self.config.cascade,
                fan_out=self._fan_out,
                parent=root,
                tracer=self.tracer,
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced via the future
            self.metrics.increment("identity_errors")
            if root is not None:
                self.tracer.end(root, status="error")
            future.set_exception(exc)
            return
        t_executed = time.perf_counter()
        payload, evidence = decision_fields(report)
        decision_frame = encode_decision(
            report.accepted, payload, request_id=request_id, evidence=evidence
        )
        t_done = time.perf_counter()

        exemplar = _record_outcome(
            self,
            report,
            request_id,
            root.trace_id if root is not None else "",
            t_done - t0,
            waited,
        )
        observe_request(
            self.metrics,
            report,
            decode_s=t_decoded - t0,
            execute_s=t_executed - t_decoded,
            encode_s=t_done - t_executed,
            slo_threshold_s=self.config.slo_latency_threshold_s,
            exemplar=exemplar,
        )
        if root is not None:
            self.tracer.end(root)
        future.set_result(decision_frame)

    # ------------------------------------------------------------------
    # Reporting / lifecycle
    # ------------------------------------------------------------------
    def _summarize(
        self,
        registry: MetricsRegistry,
        stages: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> Dict[str, object]:
        summary = super()._summarize(registry, stages)
        cache = self.system.soundfield_cache_stats
        summary["soundfield_cache"] = {
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
        }
        return summary

    def _shutdown(self) -> None:
        """Drain queued requests, stop the workers, free the scheduler."""
        for _ in self._threads:
            self._queue.put(None)
        for t in self._threads:
            t.join(timeout=30.0)
        self._scheduler.shutdown()


class _PendingRequest:
    """Parent-side bookkeeping for one request handed to a shard."""

    __slots__ = ("future", "shard_id", "request_id", "claimed", "submitted_at", "root")

    def __init__(
        self,
        future: "Future[bytes]",
        shard_id: int,
        request_id: str,
        claimed: Optional[str],
        root: Optional[Span],
    ):
        self.future = future
        self.shard_id = shard_id
        self.request_id = request_id
        self.claimed = claimed
        self.submitted_at = time.monotonic()
        self.root = root


class ShardedGateway(_ServingTier):
    """Shared-nothing process-shard serving tier.

    ``GatewayConfig(shards=N)`` forks N :mod:`~repro.server.shard`
    worker processes, each holding the whole trained system, so shards
    share no model state and the GIL stops being the scaling ceiling.
    A request goes to its speaker's ring owner, where that speaker's
    sound-field model stays resident, unless the owner already holds its
    bounded-load cap of the requests in flight; then it goes to the next
    shard under the cap in ring order
    (:meth:`~repro.server.router.ConsistentHashRouter.place`), at the
    cost of at most one LRU rehydration there.

    The parent process never verifies anything: it peeks the claimed
    speaker off each request frame (a meta-only peek that builds no
    array, :func:`~repro.server.protocol.peek_request_meta`), places the
    frame bytes verbatim onto the chosen shard's bounded queue
    (pickled once, by the queue itself), and collects decision frames,
    verification reports, and trace fragments off each shard's private
    result pipe (single writer, no cross-process lock — a dying shard
    cannot wedge its peers' replies).  The report becomes the audit row,
    wide event, drift sample and abuse observation here, through the
    same helper the threaded gateway uses, so each speaker's stream is
    seen whole wherever its requests ran.  A health monitor replaces
    dead shards and fails their in-flight requests **closed** with a
    provenance-carrying rejection frame.

    Decisions are bitwise-equal to every other serving mode — the shard
    runs the same executor — which ``tests/test_shard_equivalence.py``
    enforces.
    """

    def __init__(
        self,
        system: DefenseSystem,
        config: Optional[GatewayConfig] = None,
        tracer: Optional[Tracer] = None,
        drift: Optional[DriftRegistry] = None,
        audit: Optional[AuditJsonlExporter] = None,
        slo: Optional[SLOEngine] = None,
        abuse: Optional[AbuseDetector] = None,
        events: Optional[WideEventRecorder] = None,
    ):
        config = config if config is not None else GatewayConfig(shards=1)
        if config.shards < 1:
            raise ConfigurationError(
                "ShardedGateway needs GatewayConfig(shards >= 1); "
                "shards=0 selects the threaded Gateway"
            )
        super().__init__(
            system, config, tracer, drift, audit, slo, abuse, events
        )
        # Drift monitors, like abuse detection, run parent-side on the
        # reports the shards send back: the parent sees every speaker's
        # whole stream regardless of shard placement.  The SLO engine
        # evaluates over the *merged* registry; the per-request latency
        # counters live in the shards (where ``total_s`` is measured),
        # so merging never double-counts.
        self.router = ConsistentHashRouter(self.config.shards)
        # Fork the shards FIRST, while this process is still
        # single-threaded: forking after the collector/monitor threads
        # exist risks copying a lock mid-acquisition into the child.
        # The BLAS hold is already taken, so every shard (and every
        # replacement the monitor forks) starts with one BLAS thread and
        # never touches the hold itself.
        try:
            self._supervisor = ShardSupervisor(
                self.config.shards,
                shard_main,
                (system, self.config),
                SHARD_QUEUE_DEPTH,
            )
        except BaseException:
            self._blas.release()
            raise
        self._seq = itertools.count(1)
        self._pending: Dict[int, _PendingRequest] = {}  # guarded-by: _lock
        #: Control-message waiters: seq -> (event, reply holder).
        self._controls: Dict[int, Tuple[threading.Event, List[object]]] = {}  # guarded-by: _lock
        self._stop = threading.Event()
        #: Set once every shard has exited during close(); the
        #: collector drains the remaining pipe messages, then returns.
        self._drain = threading.Event()
        # Instrument before the collector/monitor threads exist, for the
        # same reason the shards fork first: complete observation.
        lockset.register(self)
        self._collector = threading.Thread(
            target=self._collect_loop, name="shard-collector", daemon=True
        )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-monitor", daemon=True
        )
        self._collector.start()
        self._monitor.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _enqueue(
        self, request_frame: bytes, future: "Future[bytes]", block: bool
    ) -> None:
        """Place one frame on a shard: its speaker's ring owner unless
        that shard is at its bounded-load cap
        (:meth:`~repro.server.router.ConsistentHashRouter.place`)."""
        try:
            claimed, request_id = peek_request_meta(request_frame)
        except ProtocolError as exc:
            self.metrics.increment("protocol_errors")
            future.set_exception(exc)
            return
        root: Optional[Span] = None
        if self.tracer.enabled:
            root = self.tracer.begin(
                "request",
                attrs={
                    "request_id": request_id,
                    "claimed_speaker": claimed,
                    "mode": "sharded",
                },
            )
        trace_ctx = (
            (root.trace_id, root.span_id) if root is not None else None
        )
        seq = next(self._seq)
        owner = self.router.route(claimed)
        entry = _PendingRequest(future, owner, request_id, claimed, root)
        message = ("request", seq, request_frame, trace_ctx)
        # A shard can die between us reading its queue and finishing the
        # put, in which case the frame sits on an abandoned queue.  The
        # generation counter detects that: retry on the replacement's
        # fresh queue (decisions are deterministic, so a retried frame
        # can never double-count — the abandoned copy is never read).
        for _ in range(5):
            with self._lock:
                if self._closed:
                    raise ConfigurationError("gateway has been closed")
                # Count, place and register under one acquisition, so
                # concurrent submitters cannot both fill the last slot
                # under a shard's cap.
                loads = [0] * self._supervisor.shards
                for pending in self._pending.values():
                    loads[pending.shard_id] += 1
                entry.shard_id = shard_id = self.router.place(claimed, loads)
                generation = self._supervisor.generations[shard_id]
                work_queue = self._supervisor.work_queues[shard_id]
                self._pending[seq] = entry
            if root is not None:
                root.set_attr("shard_id", shard_id)
            try:
                work_queue.put(message, block=block)
            except queue.Full:
                with self._lock:
                    self._pending.pop(seq, None)
                if root is not None:
                    root.set_attr("error", "queue full")
                    self.tracer.end(root, status="error")
                self.metrics.increment("rejected_queue_full")
                raise ConfigurationError(
                    f"shard {shard_id} queue is full "
                    f"({SHARD_QUEUE_DEPTH} requests)"
                ) from None
            with self._lock:
                if future.done():
                    # The crash handler failed this request closed (or a
                    # very fast shard already answered).
                    break
                if self._supervisor.generations[shard_id] == generation:
                    break
                # Shard replaced mid-put: reclaim and retry.
                self._pending.pop(seq, None)
        else:
            self._fail_closed(
                entry,
                shard_id,
                f"shard {shard_id} kept crashing during submission",
            )
        self.metrics.increment("requests_submitted")
        if shard_id != owner:
            self.metrics.increment("requests_rerouted")

    # ------------------------------------------------------------------
    # Result collection
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        """Multiplex every shard's result pipe (and their successors').

        The collector is the sole reader: it closes a pipe when the
        shard's death (or drain) EOFs it, and picks up a replacement's
        fresh pipe on the next snapshot of the supervisor's reader
        list.  Crash *policy* stays with the health monitor — EOF here
        only retires the transport.
        """
        while True:
            readers = [
                conn
                for conn in self._supervisor.result_readers
                if not conn.closed
            ]
            if not readers:
                if self._drain.is_set():
                    return
                # Every live pipe EOFed at once (mass crash); wait for
                # the monitor to fork replacements.
                time.sleep(HEALTH_CHECK_INTERVAL_S)
                continue
            for conn in _connection_wait(readers, timeout=0.2):
                try:
                    message = conn.recv()  # type: ignore[union-attr]
                except (EOFError, OSError):
                    # Shard exited (possibly mid-send). The monitor
                    # handles replacement; we just retire the pipe.
                    conn.close()  # type: ignore[union-attr]
                    continue
                self._dispatch(message)

    def _dispatch(self, message: Tuple) -> None:
        kind = message[0]
        if kind == "decision":
            _, seq, shard_id, frame, report, span_rows, service_s = message
            with self._lock:
                entry = self._pending.pop(seq, None)
            if entry is None:
                return  # already failed closed by the crash handler
            rtt = time.monotonic() - entry.submitted_at
            # Whatever of the round trip the shard did not spend serving
            # is waiting: its queue plus both pipe hand-offs.  No clock
            # is shared between the processes.
            waited = rtt - service_s
            self.metrics.observe("queue_s", waited)
            exemplar = _record_outcome(
                self,
                report,
                entry.request_id,
                entry.root.trace_id if entry.root is not None else "",
                rtt,
                waited,
                shard_id=shard_id,
            )
            self.metrics.observe("shard_rtt_s", rtt, exemplar=exemplar)
            self.metrics.increment("requests_collected")
            if span_rows:
                self.tracer.ingest(span_rows)
            if entry.root is not None:
                self.tracer.end(entry.root)
            entry.future.set_result(frame)
        elif kind == "decision_error":
            _, seq, shard_id, err_kind, detail = message
            with self._lock:
                entry = self._pending.pop(seq, None)
            if entry is None:
                return
            if err_kind == "protocol":
                self.metrics.increment("protocol_errors")
                exc: Exception = ProtocolError(detail)
            else:
                self.metrics.increment("shard_errors")
                exc = ConfigurationError(
                    f"shard {shard_id} failed internally: {detail}"
                )
            if entry.root is not None:
                entry.root.set_attr("error", detail)
                self.tracer.end(entry.root, status="error")
            entry.future.set_exception(exc)
        elif kind == "metrics":
            _, seq, shard_id, snapshot = message
            with self._lock:
                control = self._controls.pop(seq, None)
            if control is not None:
                control[1].append(snapshot)
                control[0].set()
        # "pong"/"stopped" need no parent-side action.

    # ------------------------------------------------------------------
    # Health / crash handling
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(HEALTH_CHECK_INTERVAL_S):
            for shard_id in range(self._supervisor.shards):
                if self._stop.is_set():
                    return
                if not self._supervisor.is_alive(shard_id):
                    self._handle_crash(shard_id)

    def _handle_crash(self, shard_id: int) -> None:
        exit_code = self._supervisor.exitcode(shard_id)
        with self._lock:
            if self._closed:
                return
            stranded = [
                (seq, entry)
                for seq, entry in self._pending.items()
                if entry.shard_id == shard_id
            ]
            for seq, _ in stranded:
                del self._pending[seq]
            # Replace under the lock so submit()'s generation check and
            # the queue swap are atomic with the pending sweep.
            self._supervisor.replace(shard_id)
        self.metrics.increment("shard_crashes")
        detail = (
            f"shard {shard_id} crashed (exit code {exit_code}) with the "
            f"request in flight; failing closed"
        )
        for _, entry in stranded:
            self._fail_closed(entry, shard_id, detail)

    def _fail_closed(
        self, entry: _PendingRequest, shard_id: int, detail: str
    ) -> None:
        """Resolve a stranded request with a provenance-carrying
        rejection frame (never an exception: fail *closed*, not open)."""
        if entry.future.done():
            return
        result = ComponentResult(
            name="shard",
            passed=False,
            score=float("-inf"),
            detail=detail,
            evidence={"shard_id": float(shard_id)},
        )
        frame = encode_decision(
            False,
            {"shard": (result.passed, result.score, result.detail)},
            request_id=entry.request_id,
            evidence={"shard": dict(result.evidence)},
        )
        if self.audit is not None:
            self.audit.write(
                DecisionRecord.build(
                    accepted=False,
                    components={"shard": result},
                    claimed_speaker=entry.claimed,
                    mode="sharded",
                    cascade_plan=self.system.cascade_plan,
                    request_id=entry.request_id,
                    trace_id=(
                        entry.root.trace_id if entry.root is not None else ""
                    ),
                )
            )
        if entry.root is not None:
            entry.root.set_attr("error", detail)
            self.tracer.end(entry.root, status="error")
        self.metrics.increment("requests_failed_closed")
        self.metrics.increment("rejected")
        self.events.record(
            WideEvent(
                request_id=entry.request_id,
                trace_id=(
                    entry.root.trace_id if entry.root is not None else ""
                ),
                claimed_speaker=entry.claimed,
                mode="sharded",
                decision="reject",
                duration_s=time.monotonic() - entry.submitted_at,
                shard_id=shard_id,
                stage_statuses={"shard": "error"},
            )
        )
        entry.future.set_result(frame)

    def kill_shard(self, shard_id: int) -> None:
        """SIGKILL one shard (chaos testing); the health monitor detects
        the death, fails its in-flight requests closed, and forks the
        replacement."""
        self._supervisor.kill(shard_id)

    @property
    def shard_generations(self) -> List[int]:
        """Replacement count per shard slot (0 = original process)."""
        return list(self._supervisor.generations)

    # ------------------------------------------------------------------
    # Metrics / telemetry
    # ------------------------------------------------------------------
    def _gather_shard_snapshots(
        self, timeout_s: float = 30.0
    ) -> List[Dict[str, object]]:
        """Ask every live shard for a metrics snapshot (in-band control
        message, so a snapshot reflects a consistent drain point)."""
        waiters: List[Tuple[threading.Event, List[object]]] = []
        with self._lock:
            for shard_id in range(self._supervisor.shards):
                if not self._supervisor.is_alive(shard_id):
                    continue
                seq = next(self._seq)
                control: Tuple[threading.Event, List[object]] = (
                    threading.Event(),
                    [],
                )
                self._controls[seq] = control
                try:
                    self._supervisor.work_queues[shard_id].put_nowait(
                        ("metrics", seq)
                    )
                except queue.Full:
                    del self._controls[seq]
                    continue
                waiters.append(control)
        deadline = time.monotonic() + timeout_s
        snapshots: List[Dict[str, object]] = []
        for event, holder in waiters:
            if event.wait(max(0.0, deadline - time.monotonic())) and holder:
                snapshots.append(holder[0])  # type: ignore[arg-type]
        return snapshots

    def merged_metrics(self) -> MetricsRegistry:
        """Whole-system registry: parent-side series + every shard's."""
        return self.metrics.merged(*self._gather_shard_snapshots())

    def _registry(self) -> MetricsRegistry:
        return self.merged_metrics()

    def _summarize(
        self,
        registry: MetricsRegistry,
        stages: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> Dict[str, object]:
        summary = super()._summarize(registry, stages)
        summary["soundfield_cache"] = {
            name: registry.counter(f"soundfield_cache_{name}")
            for name in ("hits", "misses", "evictions")
        }
        summary["shards"] = {
            "count": self.config.shards,
            "generations": self.shard_generations,
            "alive": [
                self._supervisor.is_alive(i)
                for i in range(self._supervisor.shards)
            ],
        }
        return summary

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _shutdown(self) -> None:
        """Drain every shard queue, stop the workers and the threads."""
        # Stop the monitor first: shard exits during shutdown must not
        # read as crashes (which would fork pointless replacements).
        self._stop.set()
        self._monitor.join(timeout=30.0)
        self._supervisor.request_stop()
        self._supervisor.join(timeout_s=30.0)
        # Every shard has exited, so every result pipe either holds
        # buffered messages or is at EOF: the collector drains the
        # former, closes on the latter, then observes the drain flag.
        self._drain.set()
        self._collector.join(timeout=30.0)
        self._supervisor.close_queues()
        # Anything still pending after the drain fails closed.
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for entry in leftovers:
            if not entry.future.done():
                self._fail_closed(
                    entry, entry.shard_id, "gateway closed with request in flight"
                )


def create_gateway(
    system: DefenseSystem,
    config: Optional[GatewayConfig] = None,
    tracer: Optional[Tracer] = None,
    drift: Optional[DriftRegistry] = None,
    audit: Optional[AuditJsonlExporter] = None,
    slo: Optional[SLOEngine] = None,
    abuse: Optional[AbuseDetector] = None,
    events: Optional[WideEventRecorder] = None,
) -> Union[Gateway, "ShardedGateway"]:
    """The serving tier a config asks for: ``shards=0`` → threaded
    :class:`Gateway`, ``shards>=1`` → :class:`ShardedGateway`."""
    tier: Type[Union[Gateway, ShardedGateway]] = (
        ShardedGateway if config is not None and config.shards > 0 else Gateway
    )
    return tier(system, config, tracer, drift, audit, slo, abuse, events)
