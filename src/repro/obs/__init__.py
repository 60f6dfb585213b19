"""Unified observability layer: metrics, spans, pass reports.

See :mod:`repro.obs.registry` (instruments), :mod:`repro.obs.spans`
(the one event stream: timed spans and zero-duration engine events,
schema ``dacce.spans.v1``), :mod:`repro.obs.trace` (rotating JSONL
files, read-back and tail), :mod:`repro.obs.report` (re-encoding pass
reports), :mod:`repro.obs.exporters` (Prometheus / JSON rendering) and
:mod:`repro.obs.telemetry` (the engine-facing metrics facade).
"""

from .exporters import (
    SNAPSHOT_FORMAT_VERSION,
    parse_json_snapshot,
    to_json_snapshot,
    to_prometheus_text,
)
from .registry import (
    DEFAULT_DEPTH_BUCKETS,
    DEFAULT_DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NULL_INSTRUMENT,
    null_registry,
)
from .report import PassReportLog, ReencodePassReport
from .spans import (
    DEFAULT_SPAN_CAPACITY,
    NULL_SPANS,
    PIPELINE_STAGES,
    SPAN_SCHEMA,
    Span,
    SpanContext,
    SpanRecorder,
    build_waterfall,
    group_traces,
    load_span_records,
    stage_summary,
)
from .telemetry import NULL_TELEMETRY, Telemetry, TelemetryConfig
from .trace import (
    DEFAULT_ROTATE_BACKUPS,
    DEFAULT_ROTATE_BYTES,
    RotatingTraceStream,
    follow_rotated_jsonl,
    read_rotated_jsonl,
    rotated_files,
)

__all__ = [
    "Counter",
    "DEFAULT_DEPTH_BUCKETS",
    "DEFAULT_DURATION_BUCKETS",
    "DEFAULT_ROTATE_BACKUPS",
    "DEFAULT_ROTATE_BYTES",
    "DEFAULT_SPAN_CAPACITY",
    "RotatingTraceStream",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NULL_SPANS",
    "NULL_TELEMETRY",
    "PIPELINE_STAGES",
    "PassReportLog",
    "ReencodePassReport",
    "SNAPSHOT_FORMAT_VERSION",
    "SPAN_SCHEMA",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "Telemetry",
    "TelemetryConfig",
    "build_waterfall",
    "follow_rotated_jsonl",
    "group_traces",
    "load_span_records",
    "null_registry",
    "parse_json_snapshot",
    "read_rotated_jsonl",
    "rotated_files",
    "stage_summary",
    "to_json_snapshot",
    "to_prometheus_text",
]
