"""Size/age rotation for the JSONL span-log mirror."""

import json

import pytest

from repro.obs import RotatingTraceStream, SpanRecorder


def record_line(index):
    return json.dumps({"seq": index, "event": "tick"}) + "\n"


def test_requires_some_rotation_policy(tmp_path):
    with pytest.raises(ValueError):
        RotatingTraceStream(str(tmp_path / "t.jsonl"), max_bytes=0)
    with pytest.raises(ValueError):
        RotatingTraceStream(str(tmp_path / "t.jsonl"), backups=-1)


def test_size_rotation_shifts_backups(tmp_path):
    path = tmp_path / "trace.jsonl"
    stream = RotatingTraceStream(str(path), max_bytes=100, backups=2)
    for index in range(12):
        stream.write(record_line(index))
    stream.close()
    assert stream.rotations > 0
    files = stream.files()
    assert str(path) == files[0]
    assert len(files) <= 3  # active + 2 backups
    # Every surviving line is intact JSON: rotation never splits records.
    seqs = []
    for name in files:
        for line in open(name).read().splitlines():
            seqs.append(json.loads(line)["seq"])
    # Newest records are always retained in the active file.
    assert 11 in seqs
    assert sorted(seqs) == list(range(min(seqs), 12))


def test_oldest_backup_is_dropped(tmp_path):
    path = tmp_path / "trace.jsonl"
    stream = RotatingTraceStream(str(path), max_bytes=30, backups=1)
    for index in range(20):
        stream.write(record_line(index))
    stream.close()
    assert stream.rotations >= 3
    assert len(stream.files()) == 2
    leftover = (tmp_path / "trace.jsonl.2")
    assert not leftover.exists()


def test_zero_backups_truncates_in_place(tmp_path):
    path = tmp_path / "trace.jsonl"
    stream = RotatingTraceStream(str(path), max_bytes=50, backups=0)
    for index in range(10):
        stream.write(record_line(index))
    stream.close()
    assert stream.files() == [str(path)]
    lines = path.read_text().splitlines()
    assert json.loads(lines[-1])["seq"] == 9


def test_age_rotation_uses_injected_clock(tmp_path):
    now = [1000.0]
    stream = RotatingTraceStream(
        str(tmp_path / "trace.jsonl"),
        max_bytes=10**9,
        max_age_seconds=60.0,
        backups=2,
        clock=lambda: now[0],
    )
    stream.write(record_line(0))
    now[0] += 30.0
    stream.write(record_line(1))
    assert stream.rotations == 0
    now[0] += 31.0
    stream.write(record_line(2))
    assert stream.rotations == 1
    stream.close()
    assert len(stream.files()) == 2


def test_single_record_may_overshoot_but_rotates_next(tmp_path):
    path = tmp_path / "trace.jsonl"
    stream = RotatingTraceStream(str(path), max_bytes=10, backups=1)
    big = json.dumps({"seq": 0, "pad": "x" * 50}) + "\n"
    stream.write(big)  # first record always lands in the active file
    assert stream.rotations == 0
    stream.write(record_line(1))
    assert stream.rotations == 1
    stream.close()


def test_write_after_close_raises(tmp_path):
    stream = RotatingTraceStream(str(tmp_path / "t.jsonl"), max_bytes=100)
    stream.close()
    assert stream.closed
    with pytest.raises(ValueError):
        stream.write("x\n")


def test_append_resumes_existing_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(record_line(0))
    stream = RotatingTraceStream(str(path), max_bytes=10**6)
    stream.write(record_line(1))
    stream.close()
    assert len(path.read_text().splitlines()) == 2


def test_emitter_mirrors_through_rotating_stream(tmp_path):
    """The recorder's bounded ring is unchanged; only the mirror rotates."""
    path = tmp_path / "trace.jsonl"
    stream = RotatingTraceStream(str(path), max_bytes=600, backups=2)
    recorder = SpanRecorder("engine", capacity=4, stream=stream)
    for index in range(25):
        recorder.record("engine.tick", stage="engine", index=index)
    stream.flush()
    assert len(recorder) == 4  # in-memory semantics intact
    assert recorder.emitted == 25
    assert stream.rotations > 0
    mirrored = []
    for name in stream.files():
        mirrored.extend(json.loads(line) for line in open(name))
    assert any(record["attrs"]["index"] == 24 for record in mirrored)
    stream.close()


def test_read_rotated_jsonl_chronological(tmp_path):
    from repro.obs import read_rotated_jsonl, rotated_files

    path = tmp_path / "trace.jsonl"
    stream = RotatingTraceStream(str(path), max_bytes=600, backups=3)
    recorder = SpanRecorder("engine", capacity=4, stream=stream)
    for index in range(30):
        recorder.record("engine.tick", stage="engine", index=index)
    stream.close()
    shards = rotated_files(str(path))
    assert len(shards) > 1
    assert shards[-1] == str(path)  # active file last = newest
    records = list(read_rotated_jsonl(str(path)))
    indexes = [record["attrs"]["index"] for record in records]
    # Oldest-first and strictly increasing across the shard boundary.
    assert indexes == sorted(indexes)
    assert indexes[-1] == 29


def test_read_rotated_jsonl_skips_torn_lines(tmp_path):
    from repro.obs import read_rotated_jsonl

    path = tmp_path / "trace.jsonl"
    (tmp_path / "trace.jsonl.1").write_text('{"seq": 0}\n{"torn": \n')
    path.write_text('\n{"seq": 1}\nnot-json\n')
    records = list(read_rotated_jsonl(str(path)))
    assert [record["seq"] for record in records] == [0, 1]


def test_read_rotated_jsonl_finds_shards_beyond_backups(tmp_path):
    from repro.obs import read_rotated_jsonl

    path = tmp_path / "trace.jsonl"
    for index in (1, 2, 3, 4, 5):
        (tmp_path / ("trace.jsonl.%d" % index)).write_text(
            '{"shard": %d}\n' % index
        )
    # A reader configured with fewer backups than exist still reads all.
    records = list(read_rotated_jsonl(str(path), backups=3))
    assert [record["shard"] for record in records] == [5, 4, 3, 2, 1]
