"""Span recorder + consumer-side reconstruction (repro.obs.spans)."""

import io
import json

import pytest

from repro.obs import (
    DEFAULT_SPAN_CAPACITY,
    NULL_SPANS,
    PIPELINE_STAGES,
    SPAN_SCHEMA,
    RotatingTraceStream,
    SpanContext,
    SpanRecorder,
    build_waterfall,
    group_traces,
    load_span_records,
    stage_summary,
)
from repro.obs.spans import is_span_record


def make_recorder(**kwargs):
    """Deterministic recorder: fixed clocks, sequential ids."""
    counter = {"n": 0}

    def ids():
        counter["n"] += 1
        return "t%032d" % counter["n"], "s%015d" % counter["n"]

    ticks = {"wall": 0.0, "mono": 0.0}

    def clock():
        ticks["wall"] += 1.0
        return ticks["wall"]

    def monotonic():
        ticks["mono"] += 0.5
        return ticks["mono"]

    kwargs.setdefault("clock", clock)
    kwargs.setdefault("monotonic", monotonic)
    kwargs.setdefault("id_source", ids)
    return SpanRecorder("test", **kwargs)


class TestSpanRecorder:
    def test_span_record_shape(self):
        recorder = make_recorder()
        with recorder.span("emit.flush", stage="emit", frames=3):
            pass
        (record,) = recorder.spans()
        assert record["schema"] == SPAN_SCHEMA
        assert record["name"] == "emit.flush"
        assert record["stage"] == "emit"
        assert record["svc"] == "test"
        assert record["attrs"] == {"frames": 3}
        assert record["dur"] == pytest.approx(0.5)
        assert "parent" not in record

    def test_nested_spans_share_trace_and_parent(self):
        recorder = make_recorder()
        with recorder.span("outer", stage="emit") as outer:
            with recorder.span("inner", stage="send") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        inner_rec, outer_rec = recorder.spans()
        assert inner_rec["trace"] == outer_rec["trace"]
        assert inner_rec["parent"] == outer_rec["span"]

    def test_new_trace_forces_root_inside_open_span(self):
        recorder = make_recorder()
        with recorder.span("outer") as outer:
            with recorder.span("root2", new_trace=True) as fresh:
                assert fresh.trace_id != outer.trace_id
                assert fresh.parent_id is None

    def test_explicit_parent_continues_propagated_trace(self):
        recorder = make_recorder()
        parent = SpanContext("cafe" * 8, "beef" * 4)
        with recorder.span("ingest.fold", stage="fold", parent=parent):
            pass
        (record,) = recorder.spans()
        assert record["trace"] == parent.trace_id
        assert record["parent"] == parent.span_id

    def test_current_reflects_innermost_open_span(self):
        recorder = make_recorder()
        assert recorder.current() is None
        with recorder.span("outer") as outer:
            assert recorder.current().span_id == outer.span_id
        assert recorder.current() is None

    def test_exception_sets_error_attr_and_closes(self):
        recorder = make_recorder()
        with pytest.raises(RuntimeError):
            with recorder.span("boom"):
                raise RuntimeError("nope")
        (record,) = recorder.spans()
        assert record["attrs"]["error"] == "RuntimeError"
        assert recorder.current() is None

    def test_double_finish_raises(self):
        recorder = make_recorder()
        span = recorder.span("once")
        span.finish()
        with pytest.raises(ValueError):
            span.finish()

    def test_record_after_the_fact(self):
        recorder = make_recorder()
        parent = SpanContext("ab" * 16, "cd" * 8)
        record = recorder.record(
            "ingest.admit", stage="admit", duration=0.25, parent=parent,
            outcome="folded",
        )
        assert record["trace"] == parent.trace_id
        assert record["parent"] == parent.span_id
        assert record["dur"] == 0.25
        assert record["attrs"] == {"outcome": "folded"}
        assert recorder.spans(stage="admit") == [record]

    def test_ring_bounds_and_dropped_counter(self):
        recorder = make_recorder(capacity=4)
        for index in range(10):
            recorder.record("r%d" % index)
        assert len(recorder) == 4
        assert recorder.emitted == 10
        assert recorder.dropped == 6
        names = [r["name"] for r in recorder.spans()]
        assert names == ["r6", "r7", "r8", "r9"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanRecorder("test", capacity=0)

    def test_default_capacity(self):
        assert SpanRecorder("test").capacity == DEFAULT_SPAN_CAPACITY

    def test_stream_mirroring_is_sorted_jsonl(self):
        stream = io.StringIO()
        recorder = make_recorder(stream=stream)
        with recorder.span("emit.flush", stage="emit"):
            pass
        line = stream.getvalue()
        assert line.endswith("\n")
        assert json.loads(line) == recorder.spans()[0]
        assert line == json.dumps(recorder.spans()[0], sort_keys=True) + "\n"

    def test_failing_stream_detaches_but_keeps_recording(self):
        class Broken:
            def write(self, data):
                raise OSError("disk gone")

        recorder = make_recorder(stream=Broken())
        recorder.record("first")
        assert recorder.stream is None
        recorder.record("second")
        assert len(recorder) == 2

    def test_non_json_attrs_are_mirrored_best_effort(self):
        """Engine events may carry enums, sets or arbitrary objects; the
        mirror renders them instead of raising out of the engine."""
        import enum

        class Kind(enum.Enum):
            A = "a-value"

        stream = io.StringIO()
        recorder = make_recorder(stream=stream)
        recorder.record(
            "engine.fault", stage="engine",
            kind=Kind.A, sites={3, 1, 2}, other=object(),
        )
        (line,) = stream.getvalue().splitlines()
        attrs = json.loads(line)["attrs"]
        assert attrs["kind"] == "a-value"
        assert attrs["sites"] == [1, 2, 3]
        assert attrs["other"].startswith("<object")
        assert recorder.stream is stream  # still attached

    def test_spans_filtering(self):
        recorder = make_recorder()
        recorder.record("a", stage="emit")
        recorder.record("b", stage="fold")
        recorder.record("a", stage="fold")
        assert len(recorder.spans(stage="fold")) == 2
        assert len(recorder.spans(name="a")) == 2
        assert len(recorder.spans(stage="fold", name="a")) == 1


class TestNullSpans:
    def test_disabled_and_inert(self):
        assert NULL_SPANS.enabled is False
        span = NULL_SPANS.span("anything", stage="emit")
        with span:
            span.set(key="value")
        assert NULL_SPANS.record("x") == {}
        assert NULL_SPANS.spans() == []
        assert NULL_SPANS.current() is None
        assert len(NULL_SPANS) == 0
        NULL_SPANS.flush()
        NULL_SPANS.clear()

    def test_null_span_is_shared_and_stateless(self):
        a = NULL_SPANS.span("a")
        b = NULL_SPANS.span("b")
        assert a is b
        assert a.attrs == {}


class TestSpanContext:
    def test_frame_field_round_trip(self):
        context = SpanContext("ab" * 16, "cd" * 8)
        field = context.to_frame_field()
        assert field == {"id": context.trace_id, "span": context.span_id}
        parsed = SpanContext.from_frame_field(field)
        assert parsed.trace_id == context.trace_id
        assert parsed.span_id == context.span_id

    @pytest.mark.parametrize(
        "field",
        [None, "nope", 7, {}, {"id": "x"}, {"span": "y"},
         {"id": 3, "span": "y"}, {"id": "", "span": "y"}],
    )
    def test_malformed_frame_field_returns_none(self, field):
        assert SpanContext.from_frame_field(field) is None


class TestConsumers:
    def test_is_span_record_rejects_other_jsonl(self):
        assert not is_span_record({"event": "call", "fn": 3})
        assert not is_span_record({"schema": SPAN_SCHEMA})
        recorder = make_recorder()
        assert is_span_record(recorder.record("ok"))

    def test_group_traces_sorts_by_start(self):
        recorder = make_recorder()
        recorder.record("late", trace_id="T1", ts=5.0)
        recorder.record("early", trace_id="T1", ts=1.0)
        recorder.record("other", trace_id="T2", ts=3.0)
        traces = group_traces(recorder.spans() + [{"not": "a span"}])
        assert set(traces) == {"T1", "T2"}
        assert [r["name"] for r in traces["T1"]] == ["early", "late"]

    def test_stage_summary_percentiles(self):
        recorder = make_recorder()
        for duration in (0.1, 0.2, 0.3, 0.4):
            recorder.record("ingest.fold", stage="fold", duration=duration)
        summary = stage_summary(recorder.spans())
        row = summary["fold/ingest.fold"]
        assert row["count"] == 4
        assert row["total"] == pytest.approx(1.0)
        assert row["max"] == pytest.approx(0.4)
        assert row["p50"] == pytest.approx(0.3)

    def test_build_waterfall_nests_children(self):
        recorder = make_recorder()
        with recorder.span("root", stage="emit"):
            with recorder.span("child", stage="send"):
                with recorder.span("grandchild", stage="send"):
                    pass
        (trace,) = group_traces(recorder.spans()).values()
        rows = build_waterfall(trace)
        assert [(depth, r["name"]) for depth, r in rows] == [
            (0, "root"), (1, "child"), (2, "grandchild"),
        ]

    def test_build_waterfall_promotes_orphans(self):
        # Parent span lost (rotated away): the child still shows, as a
        # root of its own.
        rows = build_waterfall(
            [
                {"schema": SPAN_SCHEMA, "trace": "T", "span": "a",
                 "parent": "gone", "name": "orphan", "stage": "fold",
                 "ts": 1.0, "dur": 0.1},
            ]
        )
        assert [(depth, r["name"]) for depth, r in rows] == [(0, "orphan")]

    def test_pipeline_stages_constant(self):
        assert PIPELINE_STAGES == (
            "emit", "spool", "send", "admit", "fold", "publish"
        )

    def test_load_span_records_folds_rotated_shards(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        stream = RotatingTraceStream(path, max_bytes=400, backups=3)
        recorder = make_recorder(stream=stream)
        for index in range(12):
            recorder.record("span%02d" % index, stage="emit", duration=0.01)
        stream.write(json.dumps({"event": "call", "fn": 1}) + "\n")
        stream.close()
        names = [r["name"] for r in load_span_records([path])]
        # Oldest-first across shards, non-span lines skipped; the
        # oldest shard may have rotated out of the backup window.
        assert names == sorted(names)
        assert names[-1] == "span11"
        assert len(names) >= 4
