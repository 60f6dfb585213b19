"""Engine + telemetry integration: hooks, pass reports, exports."""

import json

import pytest

from repro.core.engine import DacceEngine
from repro.core.events import CallKind
from repro.obs import SPAN_SCHEMA, SpanRecorder, Telemetry, parse_json_snapshot
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import (
    PhaseSpec,
    ThreadSpec,
    TraceExecutor,
    WorkloadSpec,
)


@pytest.fixture(scope="module")
def instrumented_run():
    program = generate_program(
        GeneratorConfig(
            seed=9,
            recursive_sites=4,
            indirect_fraction=0.12,
            tail_fraction=0.05,
            library_functions=6,
        )
    )
    spec = WorkloadSpec(
        calls=15_000,
        seed=4,
        sample_period=53,
        recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=3, spawn_at_call=1500)],
        phases=[PhaseSpec(at_call=7_500, seed=7)],
    )
    telemetry = Telemetry()
    engine = DacceEngine(
        root=program.main, telemetry=telemetry, spans=SpanRecorder("engine")
    )
    for event in TraceExecutor(program, spec).events():
        engine.on_event(event)
    return engine, telemetry


class TestMetricsMigration:
    def test_event_counters_match_stats(self, instrumented_run):
        engine, telemetry = instrumented_run
        events = telemetry.registry.get("events_total")
        total_calls = sum(
            events.value("call:%s" % kind.value) for kind in CallKind
        )
        assert total_calls == engine.stats.calls
        assert events.value("return") == engine.stats.returns
        assert events.value("sample") == engine.stats.samples

    def test_legacy_stats_pulled_at_snapshot(self, instrumented_run):
        engine, telemetry = instrumented_run
        snapshot = telemetry.snapshot()
        runtime = {
            series["labels"]["stat"]: series["value"]
            for series in snapshot["dacce_runtime_total"]["series"]
        }
        assert runtime["calls"] == engine.stats.calls
        assert runtime["handler_invocations"] == engine.stats.handler_invocations
        assert runtime["reencodings"] == engine.stats.reencodings

    def test_ccstack_ops_match_merged_totals(self, instrumented_run):
        engine, telemetry = instrumented_run
        snapshot = telemetry.snapshot()
        ops = {
            series["labels"]["op"]: series["value"]
            for series in snapshot["dacce_ccstack_ops_total"]["series"]
        }
        merged = engine.ccstack_stats()
        for op in ("pushes", "pops", "compressions", "decompressions"):
            assert ops[op] == merged[op]

    def test_indirect_counters(self, instrumented_run):
        engine, telemetry = instrumented_run
        indirect = telemetry.registry.get("indirect_dispatch_total")
        telemetry.registry.collect()
        assert indirect.value("hit") == engine.stats.indirect_hits
        assert indirect.value("miss") == engine.stats.indirect_misses
        assert engine.stats.indirect_hits > 0

    def test_depth_histogram_observed(self, instrumented_run):
        engine, telemetry = instrumented_run
        depth = telemetry.registry.get("ccstack_depth").data()
        assert depth.count > 0
        merged = engine.ccstack_stats()
        # One observation per push/compress and per pop/decompress on
        # thread event paths (regeneration pushes are not observed).
        assert depth.count <= merged["pushes"] + merged["pops"] + \
            merged["compressions"] + merged["decompressions"]


class TestPassReports:
    def test_reports_align_with_reencode_log(self, instrumented_run):
        engine, telemetry = instrumented_run
        assert len(telemetry.pass_reports) == engine.stats.reencodings
        for report, record in zip(
            telemetry.pass_reports, engine.reencode_log
        ):
            assert report.timestamp == record.timestamp
            assert report.reasons == record.reasons
            assert report.at_call == record.at_call
            assert report.max_id == record.max_id

    def test_reports_carry_trigger_evidence(self, instrumented_run):
        _engine, telemetry = instrumented_run
        report = telemetry.pass_reports.reports[0]
        assert report.reasons
        assert set(report.reasons) <= {
            "new-edges", "hot-paths-changed", "ccstack-traffic",
        }
        assert report.window is not None
        assert report.window["calls"] > 0
        assert report.duration_seconds > 0

    def test_reason_counts(self, instrumented_run):
        _engine, telemetry = instrumented_run
        counts = telemetry.pass_reports.reason_counts()
        assert sum(counts.values()) >= len(telemetry.pass_reports)

    def test_manual_reencode_reported(self):
        telemetry = Telemetry()
        engine = DacceEngine(root=0, telemetry=telemetry)
        engine.reencode()
        report = telemetry.pass_reports.last()
        assert report.reasons == ("manual",)
        assert report.window is None
        assert report.timestamp == engine.timestamp


class TestTraceStream:
    """Engine events are spans: one ``engine.reencode`` per committed
    pass, carrying the pass report's fields."""

    def test_reencode_events_traced(self, instrumented_run):
        engine, telemetry = instrumented_run
        passes = [
            record for record in engine.spans.spans(name="engine.reencode")
            if not record["attrs"].get("skipped")
        ]
        assert len(passes) == engine.stats.reencodings > 0
        for record, report in zip(passes, telemetry.pass_reports):
            attrs = record["attrs"]
            assert record["stage"] == "engine"
            assert attrs["reasons"] == ",".join(report.reasons)
            assert attrs["timestamp"] == attrs["gts"] == report.timestamp
            assert attrs["max_id"] == report.max_id
            assert attrs["new_edges"] == report.new_edges
            assert report.span["span"] == record["span"]

    def test_thread_lifecycle_traced(self, instrumented_run):
        engine, _telemetry = instrumented_run
        starts = engine.spans.spans(name="engine.thread_start")
        assert [record["attrs"]["thread"] for record in starts] == [1]
        assert starts[0]["attrs"]["parent_thread"] == 0
        assert starts[0]["dur"] == 0.0


class TestExports:
    def test_prometheus_contains_acceptance_series(self, instrumented_run):
        _engine, telemetry = instrumented_run
        text = telemetry.to_prometheus()
        assert "dacce_ccstack_depth_bucket{le=" in text
        assert 'dacce_indirect_dispatch_total{result="hit"}' in text
        assert 'dacce_indirect_dispatch_total{result="miss"}' in text
        assert "dacce_reencode_pass_duration_seconds{" in text
        assert 'gts="' in text
        assert 'reasons="' in text

    def test_json_snapshot_round_trips(self, instrumented_run):
        engine, telemetry = instrumented_run
        document = parse_json_snapshot(telemetry.to_json())
        assert len(document["reencode_passes"]) == engine.stats.reencodings
        assert document["reencode_passes"][0]["reasons"]

    def test_stats_snapshot_backward_compatible(self, instrumented_run):
        engine, _telemetry = instrumented_run
        summary = engine.summary()
        snapshot = engine.stats_snapshot()
        for key, value in summary.items():
            assert snapshot[key] == value
        assert snapshot["telemetry_enabled"] is True
        assert len(snapshot["reencode_passes"]) == engine.stats.reencodings


class TestDisabledTelemetry:
    def test_disabled_engine_has_no_observable_surface(self, small_program):
        engine = DacceEngine(root=small_program.main)
        spec = WorkloadSpec(calls=2_000, seed=5, sample_period=37)
        for event in TraceExecutor(small_program, spec).events():
            engine.on_event(event)
        assert engine.telemetry.enabled is False
        assert engine.telemetry.snapshot() == {}
        assert engine.telemetry.to_prometheus() == ""
        snapshot = engine.stats_snapshot()
        assert snapshot["telemetry_enabled"] is False
        assert "reencode_passes" not in snapshot
        with pytest.raises(AttributeError):
            engine.telemetry.trace

    def test_disabled_and_enabled_runs_agree(self, small_program):
        spec = WorkloadSpec(calls=4_000, seed=5, sample_period=37,
                            recursion_affinity=0.4)
        plain = DacceEngine(root=small_program.main)
        observed = DacceEngine(
            root=small_program.main, telemetry=Telemetry()
        )
        for event in TraceExecutor(small_program, spec).events():
            plain.on_event(event)
        for event in TraceExecutor(small_program, spec).events():
            observed.on_event(event)
        assert plain.summary() == observed.summary()
        assert [s.context_id for s in plain.samples] == [
            s.context_id for s in observed.samples
        ]


def test_trace_jsonl_from_engine(tmp_path, small_program):
    import io

    stream = io.StringIO()
    engine = DacceEngine(
        root=small_program.main, spans=SpanRecorder("engine", stream=stream)
    )
    spec = WorkloadSpec(calls=4_000, seed=5, sample_period=37,
                        recursion_affinity=0.4)
    for event in TraceExecutor(small_program, spec).events():
        engine.on_event(event)
    lines = [line for line in stream.getvalue().splitlines() if line]
    assert lines
    parsed = [json.loads(line) for line in lines]
    assert all(record["schema"] == SPAN_SCHEMA for record in parsed)
    assert any(record["name"] == "engine.reencode" for record in parsed)
