"""Frame schema: build, serialize, validate, reject."""

import json

import pytest

from repro.ingest import (
    FRAME_SCHEMA,
    FrameError,
    frame_line,
    is_known_type,
    make_frame,
    parse_frame,
    sample_entry,
    samples_payload,
    validate_frame,
)


def test_make_frame_shape():
    frame = make_frame("heartbeat", {"calls": 5}, 123.5, 7)
    assert frame == {
        "schema": FRAME_SCHEMA,
        "type": "heartbeat",
        "created_at": 123.5,
        "seq": 7,
        "payload": {"calls": 5},
    }


def test_frame_line_round_trips():
    frame = make_frame("heartbeat", {"calls": 5}, 123.5, 7)
    line = frame_line(frame)
    assert "\n" not in line
    assert parse_frame(line) == frame


def test_frame_line_is_key_sorted_and_compact():
    line = frame_line(make_frame("heartbeat", {"b": 1, "a": 2}, 1.0, 0))
    assert line.index('"a"') < line.index('"b"')
    assert ": " not in line


@pytest.mark.parametrize(
    "raw, reason",
    [
        ("not json", "bad-json"),
        ("[1,2,3]", "not-an-object"),
        ('{"schema": "nope", "type": "heartbeat"}', "bad-schema"),
        ('{"schema": "%s", "type": ""}' % FRAME_SCHEMA, "bad-type"),
        ('{"schema": "%s", "type": 7}' % FRAME_SCHEMA, "bad-type"),
        (
            '{"schema": "%s", "type": "heartbeat", "payload": []}' % FRAME_SCHEMA,
            "bad-payload",
        ),
        (
            '{"schema": "%s", "type": "heartbeat", "payload": {}, '
            '"created_at": "now"}' % FRAME_SCHEMA,
            "bad-timestamp",
        ),
        (
            '{"schema": "%s", "type": "heartbeat", "payload": {}, '
            '"created_at": 1.0, "seq": -1}' % FRAME_SCHEMA,
            "bad-seq",
        ),
    ],
)
def test_parse_frame_rejects(raw, reason):
    with pytest.raises(FrameError) as excinfo:
        parse_frame(raw)
    assert excinfo.value.reason == reason


def test_unknown_type_passes_validation():
    """Additive versioning: new frame types must not be rejected."""
    frame = make_frame("totally.new.type", {"x": 1}, 1.0, 0)
    assert validate_frame(json.loads(frame_line(frame)))["type"] == "totally.new.type"
    assert not is_known_type("totally.new.type")
    assert is_known_type("profile.samples")


def test_samples_payload_validation():
    good = samples_payload([sample_entry([0, 2, 3], 4.0, 9, thread=1)])
    frame = make_frame("profile.samples", good, 1.0, 0)
    validate_frame(frame)

    bad_path = samples_payload([{"path": [0, "x"], "weight": 1.0, "gts": 0}])
    with pytest.raises(FrameError):
        validate_frame(make_frame("profile.samples", bad_path, 1.0, 0))

    bad_weight = samples_payload([{"path": [0], "weight": -2.0, "gts": 0}])
    with pytest.raises(FrameError):
        validate_frame(make_frame("profile.samples", bad_weight, 1.0, 0))

    bad_gts = samples_payload([{"path": [0], "weight": 1.0, "gts": True}])
    with pytest.raises(FrameError):
        validate_frame(make_frame("profile.samples", bad_gts, 1.0, 0))


@pytest.mark.parametrize(
    "path, ok",
    [
        ([], True),
        ([0, 7, 3], True),
        ([0, True], False),  # a bool is not a function id
        ([0, 1.0], False),
        ([0, None], False),
        ([0, [1]], False),
    ],
)
def test_samples_path_must_hold_function_ids(path, ok):
    payload = samples_payload(
        [sample_entry([0], 1.0, 0), {"path": path, "weight": 1.0, "gts": 0}]
    )
    frame = make_frame("profile.samples", payload, 1.0, 0)
    if ok:
        validate_frame(frame)
        return
    with pytest.raises(FrameError, match="sample 1 'path'"):
        validate_frame(frame)


def test_samples_path_accepts_int_subclasses():
    import enum

    class Fn(enum.IntEnum):
        MAIN = 0
        LEAF = 4

    payload = samples_payload([{"path": [Fn.MAIN, Fn.LEAF], "weight": 1.0}])
    validate_frame(make_frame("profile.samples", payload, 1.0, 0))

def test_sample_entry_partial_marker():
    entry = sample_entry([3], 1.0, 2, partial=True, reason="unknown-context")
    assert entry["partial"] is True
    assert entry["reason"] == "unknown-context"
    full = sample_entry([3], 1.0, 2)
    assert "partial" not in full and "reason" not in full


def test_run_start_names_must_be_mapping():
    with pytest.raises(FrameError):
        validate_frame(
            make_frame("run.start", {"names": ["main"]}, 1.0, 0)
        )
