"""Observability: request tracing, decision provenance, telemetry export.

The serving path's verdicts must be auditable offline — which stage
fired, on what evidence, against which paper threshold (``Dt``, ``Mt``,
``βt``, the ASV LLR threshold) — and its score distributions monitored
online.  This subpackage provides the four pieces the ISSUE-4 tentpole
names:

- :mod:`repro.obs.trace` — :class:`Tracer`/:class:`Span` with
  thread-local nesting and a zero-cost :data:`NULL_TRACER` default;
- :mod:`repro.obs.provenance` — structured per-stage evidence folded
  into :class:`DecisionRecord` with a human-readable ``explain()``;
- :mod:`repro.obs.exporters` — rotating JSONL trace/audit sinks and the
  Prometheus text exposition of a metrics registry;
- :mod:`repro.obs.drift` — rolling + P²-sketched per-stage score
  statistics with threshold-crossing :class:`DriftAlert`\\ s.

The ISSUE-9 operational tier adds four more:

- :mod:`repro.obs.slo` — declarative objectives with multi-window
  burn-rate alerting over the metrics registry;
- :mod:`repro.obs.events` — tail-sampled per-request wide events;
- :mod:`repro.obs.abuse` — per-speaker query-rate and score-trend
  probe detection (red-teamed against :mod:`repro.attacks.adversarial`);
- :mod:`repro.obs.console` — the ``python -m repro.obs.console`` ops
  view over gateway telemetry.
"""

from repro.obs.abuse import AbuseAlert, AbuseDetector
from repro.obs.events import WideEvent, WideEventRecorder
from repro.obs.slo import (
    DEFAULT_WINDOWS,
    BurnWindow,
    SLOEngine,
    SLObjective,
    default_objectives,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    render_trace,
    spans_from_dicts,
)
from repro.obs.provenance import DecisionRecord, StageProvenance
from repro.obs.exporters import (
    AuditJsonlExporter,
    JsonlRotatingWriter,
    TraceJsonlExporter,
    escape_label_value,
    parse_prometheus,
    prometheus_exposition,
    read_jsonl,
    unescape_label_value,
)
from repro.obs.drift import DriftAlert, DriftMonitor, DriftRegistry, P2Quantile

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "render_trace",
    "spans_from_dicts",
    "DecisionRecord",
    "StageProvenance",
    "AuditJsonlExporter",
    "JsonlRotatingWriter",
    "TraceJsonlExporter",
    "parse_prometheus",
    "prometheus_exposition",
    "read_jsonl",
    "DriftAlert",
    "DriftMonitor",
    "DriftRegistry",
    "P2Quantile",
    "AbuseAlert",
    "AbuseDetector",
    "WideEvent",
    "WideEventRecorder",
    "BurnWindow",
    "SLOEngine",
    "SLObjective",
    "DEFAULT_WINDOWS",
    "default_objectives",
    "escape_label_value",
    "unescape_label_value",
]
