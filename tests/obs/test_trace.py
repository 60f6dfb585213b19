"""Engine event records (what ``dacce trace`` prints): the engine's
moments as ``dacce.spans.v1`` records on one bounded recorder."""

import io
import json

import pytest

from repro.core.engine import DacceEngine
from repro.core.events import ThreadExitEvent, ThreadStartEvent
from repro.obs import (
    SPAN_SCHEMA,
    RotatingTraceStream,
    SpanRecorder,
    read_rotated_jsonl,
)


def engine_with(**recorder_kwargs):
    spans = SpanRecorder("engine", **recorder_kwargs)
    return DacceEngine(spans=spans), spans


def test_emit_assigns_sequence_and_kind():
    engine, spans = engine_with(clock=lambda: 123.0)
    engine.on_event(ThreadStartEvent(thread=1, parent=0, entry=7))
    (record,) = spans.spans()
    assert spans.emitted == 1
    assert record["schema"] == SPAN_SCHEMA
    assert record["name"] == "engine.thread_start"
    assert record["stage"] == "engine"
    assert record["ts"] == 123.0
    assert record["dur"] == 0.0
    assert record["attrs"] == {
        "thread": 1, "parent_thread": 0, "entry": 7, "gts": 0,
    }


def test_ring_is_bounded_and_counts_drops():
    engine, spans = engine_with(capacity=3)
    for _ in range(5):
        engine.reencode()
    assert len(spans) == 3
    assert spans.emitted == 5
    assert spans.dropped == 2
    assert [record["attrs"]["gts"] for record in spans.spans()] == [3, 4, 5]


def test_filter_and_last():
    engine, spans = engine_with()
    engine.on_event(ThreadStartEvent(thread=1, parent=0, entry=7))
    engine.reencode()
    engine.on_event(ThreadExitEvent(thread=1))
    assert [r["name"] for r in spans.spans(stage="engine")] == [
        "engine.thread_start", "engine.reencode", "engine.thread_exit",
    ]
    (exit_record,) = spans.spans(name="engine.thread_exit")
    assert exit_record["attrs"]["gts"] == 1
    assert spans.spans(name="engine.fault") == []


def test_jsonl_output_parses_line_by_line():
    stream = io.StringIO()
    engine, _ = engine_with(stream=stream)
    engine.reencode()
    engine.reencode()
    lines = stream.getvalue().strip().split("\n")
    records = [json.loads(line) for line in lines]
    assert [r["attrs"]["timestamp"] for r in records] == [1, 2]
    assert all(r["name"] == "engine.reencode" for r in records)


def test_stream_mirroring():
    stream = io.StringIO()
    engine, spans = engine_with(stream=stream)
    engine.on_event(ThreadStartEvent(thread=1, parent=0, entry=7))
    engine.reencode()
    mirrored = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert mirrored == json.loads(json.dumps(spans.spans()))


def test_write_jsonl(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    stream = RotatingTraceStream(path)
    engine, _ = engine_with(stream=stream)
    engine.reencode()
    stream.close()
    (record,) = read_rotated_jsonl(path)
    assert record["name"] == "engine.reencode"
    assert record["attrs"]["reasons"] == "manual"


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        SpanRecorder("engine", capacity=0)
