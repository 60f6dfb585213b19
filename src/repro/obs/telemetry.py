"""The engine-facing telemetry facade.

:class:`Telemetry` bundles the metrics registry and the re-encoding pass
reports behind one object the engine can hold.  Engine *events* (passes,
thread lifecycle, promotions, faults) are spans on the engine's
:class:`~repro.obs.spans.SpanRecorder` — see
``DacceEngine(spans=...)``.  A disabled engine holds
:data:`NULL_TELEMETRY` instead, whose ``enabled`` flag short-circuits
every hot-path hook to a single boolean test and whose instruments are
shared no-ops, so the telemetry layer costs nothing unless asked for.

Typical use::

    from repro.obs import Telemetry
    from repro.core.engine import DacceEngine

    telemetry = Telemetry()
    engine = DacceEngine(root=program.main, telemetry=telemetry)
    engine.run(events)

    exposition = telemetry.to_prometheus()      # Prometheus text format
    document = telemetry.to_json(indent=2)      # JSON snapshot
    passes = telemetry.pass_reports.to_list()   # why each gTS bump fired
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .exporters import to_json_snapshot, to_prometheus_text
from .registry import (
    DEFAULT_DEPTH_BUCKETS,
    DEFAULT_DURATION_BUCKETS,
    MetricsRegistry,
    NULL_INSTRUMENT,
)
from .report import PassReportLog, ReencodePassReport


@dataclass
class TelemetryConfig:
    """Knobs for the telemetry surfaces."""

    #: ccStack / call-stack depth histogram bucket upper bounds.
    depth_buckets: Tuple[float, ...] = DEFAULT_DEPTH_BUCKETS
    #: Re-encoding pass duration buckets, seconds.
    duration_buckets: Tuple[float, ...] = DEFAULT_DURATION_BUCKETS
    #: Metric name prefix.
    namespace: str = "dacce"


class Telemetry:
    """Live telemetry: metrics registry + pass-report log."""

    enabled = True

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.config = config or TelemetryConfig()
        self.registry = registry or MetricsRegistry(
            enabled=True, namespace=self.config.namespace
        )
        self.pass_reports = PassReportLog()
        self._pass_duration = self.registry.histogram(
            "reencode_duration_seconds",
            "Wall-clock duration of re-encoding passes.",
            buckets=self.config.duration_buckets,
        )
        self._pass_count = self.registry.counter(
            "reencode_passes_total",
            "Re-encoding passes by trigger reason.",
            labelnames=("reason",),
        )

    # ------------------------------------------------------------------
    def record_pass(self, report: ReencodePassReport) -> None:
        """Store one pass report and update the pass metrics."""
        self.pass_reports.append(report)
        self._pass_duration.observe(report.duration_seconds)
        for reason in report.reasons:
            self._pass_count.labels(reason).inc()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return self.registry.snapshot()

    def to_prometheus(self) -> str:
        return to_prometheus_text(self.snapshot(), self.pass_reports)

    def to_json(self, indent: Optional[int] = None) -> str:
        return to_json_snapshot(self.snapshot(), self.pass_reports, indent=indent)


class _NullTelemetry:
    """Disabled telemetry: every surface is an inert shared object.

    The engine stores this by default; hooks guard on ``enabled`` and
    anything that slips through lands on no-op instruments.  Immutable
    and shared — do not attach state to it.
    """

    enabled = False
    config = TelemetryConfig()

    def __init__(self):
        self.registry = MetricsRegistry(enabled=False)
        self.pass_reports = PassReportLog()
        self._pass_duration = NULL_INSTRUMENT
        self._pass_count = NULL_INSTRUMENT

    def record_pass(self, report: ReencodePassReport) -> None:
        pass

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {}

    def to_prometheus(self) -> str:
        return ""

    def to_json(self, indent: Optional[int] = None) -> str:
        return to_json_snapshot({}, (), indent=indent)


NULL_TELEMETRY = _NullTelemetry()
