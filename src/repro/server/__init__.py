"""Client-server prototype (paper §V) and the concurrent serving path.

The paper's prototype is an Android app talking to a Tornado backend over
a secure web socket: the app records acoustic + inertial data, zips it,
and uploads; the server unzips, runs the verification cascade (with a
scheduler parallelising the machine-detection components), and returns
the decision.

This subpackage reproduces that architecture in-process, uploading the
arrays raw instead of zipped (they barely compress; see
:mod:`repro.server.protocol`), and scales it:

- :mod:`repro.server.protocol` — framed, checksummed message encoding
  for captures (raw float32 arrays behind a JSON meta block) and
  decisions;
- :mod:`repro.server.scheduler` — a small APScheduler-style job pool that
  runs the verification components concurrently, with per-job execution
  timeouts and bounded crash retries;
- :mod:`repro.server.backend` — the sequential request handler wrapping a
  :class:`repro.core.pipeline.DefenseSystem`;
- :mod:`repro.server.gateway` — the concurrent verification gateway:
  bounded admission queue, request-worker pool, shared component
  scheduler, and per-stage metrics; plus the shared-nothing
  :class:`~repro.server.gateway.ShardedGateway` process tier
  (``GatewayConfig(shards=N)``);
- :mod:`repro.server.blas` — the process-wide hold that runs OpenBLAS at
  one thread while a serving object is open (its pool would otherwise
  spin on the cores the stage threads need);
- :mod:`repro.server.router` — bounded-load consistent-hash placement;
- :mod:`repro.server.shard` — the forked shard worker's serving loop;
- :mod:`repro.server.metrics` — latency histograms and throughput
  counters shared by the serving paths, with cross-process snapshot
  merging for the shard tier;
- :mod:`repro.server.client` — the mobile-app side: packs captures,
  submits them, and measures round-trip authentication time (Fig. 15),
  plus a concurrent load generator for gateway benches.

Observability (tracing, decision provenance, drift monitors, JSONL and
Prometheus exporters) lives in :mod:`repro.obs`; the gateway accepts a
tracer/drift registry/audit log and serves telemetry-scrape frames.
"""

from repro.server.protocol import (
    KIND_DECISION,
    KIND_REQUEST,
    KIND_TELEMETRY_REQUEST,
    KIND_TELEMETRY_RESPONSE,
    decode_decision,
    decode_request,
    decode_request_full,
    decode_telemetry_request,
    decode_telemetry_response,
    encode_decision,
    encode_request,
    encode_telemetry_request,
    encode_telemetry_response,
    frame_kind,
    peek_request_meta,
    decision_fingerprint,
    decisions_checksum,
)
from repro.server.scheduler import JobResult, JobScheduler, ShardSupervisor
from repro.server.metrics import Histogram, MetricsRegistry
from repro.server.backend import VerificationServer
from repro.server.router import ConsistentHashRouter
from repro.server.gateway import (
    Gateway,
    GatewayConfig,
    ShardedGateway,
    create_gateway,
)
from repro.server.client import (
    LoadGenerator,
    MobileClient,
    TimingReport,
    summarize_trials,
)

__all__ = [
    "KIND_DECISION",
    "KIND_REQUEST",
    "KIND_TELEMETRY_REQUEST",
    "KIND_TELEMETRY_RESPONSE",
    "decode_decision",
    "decode_request",
    "decode_request_full",
    "decode_telemetry_request",
    "decode_telemetry_response",
    "encode_decision",
    "encode_request",
    "encode_telemetry_request",
    "encode_telemetry_response",
    "frame_kind",
    "peek_request_meta",
    "decision_fingerprint",
    "decisions_checksum",
    "JobResult",
    "JobScheduler",
    "ShardSupervisor",
    "Histogram",
    "MetricsRegistry",
    "VerificationServer",
    "ConsistentHashRouter",
    "Gateway",
    "GatewayConfig",
    "ShardedGateway",
    "create_gateway",
    "LoadGenerator",
    "MobileClient",
    "TimingReport",
    "summarize_trials",
]
