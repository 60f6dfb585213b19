"""JSONL log plumbing: size/age rotation, chronological read-back, tail.

Span logs (``dacce.spans.v1``, see :mod:`repro.obs.spans`) are written
through :class:`RotatingTraceStream` so a long-lived process never grows
one unbounded file, read back across rotated shards with
:func:`read_rotated_jsonl` (``dacce trace --input``, ``dacce spans``)
and tailed across rotations with :func:`follow_rotated_jsonl`
(``dacce trace --follow``).
"""

from __future__ import annotations

import json
import os
import time
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Tuple,
)

DEFAULT_ROTATE_BYTES = 8 * 1024 * 1024
DEFAULT_ROTATE_BACKUPS = 3


class RotatingTraceStream:
    """A size/age-rotating file target for a :class:`SpanRecorder`.

    The recorder's in-memory ring stays bounded by construction; this
    bounds the *mirrored JSONL file* too, so a long ``dacce serve`` or
    ``dacce profile serve`` session cannot grow one unbounded log.  Rotation is
    the classic shift scheme: ``trace.jsonl`` → ``trace.jsonl.1`` →
    ``…`` → ``trace.jsonl.<backups>`` (oldest dropped), triggered when
    the active file would exceed ``max_bytes`` or has been open longer
    than ``max_age_seconds``.  Records are never split: the size check
    runs before each write, so one record may overshoot ``max_bytes``
    but a rotation boundary always falls between records.

    Duck-types the ``write``/``flush``/``close`` subset of a text
    stream, which is all the recorder needs.
    """

    def __init__(
        self,
        path: str,
        max_bytes: int = DEFAULT_ROTATE_BYTES,
        max_age_seconds: float = 0.0,
        backups: int = DEFAULT_ROTATE_BACKUPS,
        clock: Callable[[], float] = time.time,
    ):
        if max_bytes <= 0 and max_age_seconds <= 0:
            raise ValueError(
                "rotation needs max_bytes > 0 or max_age_seconds > 0"
            )
        if backups < 0:
            raise ValueError("backups must be >= 0")
        self.path = path
        self.max_bytes = max_bytes
        self.max_age_seconds = max_age_seconds
        self.backups = backups
        self._clock = clock
        self.rotations = 0
        self._handle: Optional[IO[str]] = None
        self._written = 0
        self._opened_at = 0.0
        self._open()

    # ------------------------------------------------------------------
    def _open(self) -> None:
        self._handle = open(self.path, "a")
        self._written = self._handle.tell()
        self._opened_at = self._clock()

    def _should_rotate(self, incoming: int) -> bool:
        if self.max_bytes > 0 and self._written > 0 and (
            self._written + incoming > self.max_bytes
        ):
            return True
        if self.max_age_seconds > 0 and (
            self._clock() - self._opened_at >= self.max_age_seconds
        ):
            return True
        return False

    def _rotate(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self.backups > 0:
            oldest = "%s.%d" % (self.path, self.backups)
            if os.path.exists(oldest):
                os.remove(oldest)
            for index in range(self.backups - 1, 0, -1):
                source = "%s.%d" % (self.path, index)
                if os.path.exists(source):
                    os.replace(source, "%s.%d" % (self.path, index + 1))
            if os.path.exists(self.path):
                os.replace(self.path, "%s.1" % self.path)
        else:
            # No backups kept: truncate in place.
            if os.path.exists(self.path):
                os.remove(self.path)
        self.rotations += 1
        self._open()

    # ------------------------------------------------------------------
    def write(self, text: str) -> int:
        if self._handle is None:
            raise ValueError("rotating trace stream is closed")
        if self._should_rotate(len(text)):
            self._rotate()
        assert self._handle is not None
        written = self._handle.write(text)
        self._written += written
        return written

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @property
    def closed(self) -> bool:
        return self._handle is None

    def files(self) -> List[str]:
        """Existing files, active first, then backups newest-first."""
        out = []
        if os.path.exists(self.path):
            out.append(self.path)
        for index in range(1, self.backups + 1):
            candidate = "%s.%d" % (self.path, index)
            if os.path.exists(candidate):
                out.append(candidate)
        return out


def rotated_files(path: str, backups: int = DEFAULT_ROTATE_BACKUPS) -> List[str]:
    """Existing shards of a rotated JSONL trace, oldest first.

    The shift scheme writes ``path`` (active) with backups
    ``path.1`` (newest) … ``path.N`` (oldest), so chronological order is
    the highest-numbered backup down to the active file.  ``backups``
    only bounds the scan when no higher-numbered shard exists — shards
    beyond it (an older writer that kept more backups) are
    still picked up.
    """
    out: List[str] = []
    index = 1
    misses = 0
    while misses < max(1, backups):
        candidate = "%s.%d" % (path, index)
        if os.path.exists(candidate):
            out.append(candidate)
            misses = 0
        else:
            misses += 1
        index += 1
    out.reverse()
    if os.path.exists(path):
        out.append(path)
    return out


def read_rotated_jsonl(
    path: str, backups: int = DEFAULT_ROTATE_BACKUPS
) -> Iterator[Dict[str, Any]]:
    """Yield records from a rotated JSONL trace in chronological order.

    Reads ``path.N`` … ``path.1`` then the active ``path`` (what
    ``dacce trace --input`` uses), skipping blank and truncated lines —
    a mid-write rotation can legitimately leave a torn last line in a
    shard.
    """
    for shard in rotated_files(path, backups=backups):
        try:
            handle = open(shard)
        except OSError:
            continue
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    yield record


def _complete_lines(
    path: str, offset: int
) -> Tuple[int, List[Dict[str, Any]]]:
    """Parse complete (newline-terminated) JSONL records from ``offset``.

    Returns the new byte offset — a torn trailing line is left in place
    and re-read on the next poll once the writer finishes it.
    """
    records: List[Dict[str, Any]] = []
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
    except OSError:
        return offset, records
    end = chunk.rfind(b"\n")
    if end < 0:
        return offset, records
    for raw in chunk[: end + 1].splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            continue
        if isinstance(record, dict):
            records.append(record)
    return offset + end + 1, records


def _shard_with_inode(path: str, inode: int, backups: int) -> Optional[str]:
    """Locate the backup shard holding ``inode`` after a shift rotation."""
    for index in range(1, max(1, backups) + 1):
        candidate = "%s.%d" % (path, index)
        try:
            if os.stat(candidate).st_ino == inode:
                return candidate
        except OSError:
            continue
    return None


def follow_rotated_jsonl(
    path: str,
    poll: float = 0.2,
    duration: float = 0.0,
    backups: int = DEFAULT_ROTATE_BACKUPS,
    clock: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Dict[str, Any]]:
    """Tail a rotated JSONL trace, surviving rotations mid-follow.

    Poll-based (``dacce trace --follow``): tracks the active file's
    inode and byte offset, yielding each complete record once.  When
    the writer rotates — the shift scheme renames the active file to
    ``path.1`` and reopens ``path`` — the renamed shard is drained to
    its end (found by inode among the backups) before the new active
    file is picked up at offset 0, so no record is skipped or
    duplicated across the rotation boundary.  In-place truncation
    (``backups=0`` writers) resets the offset.

    Runs until ``duration`` elapses (when positive) or ``should_stop``
    returns true; with neither, follows forever.
    """
    if poll <= 0:
        raise ValueError("poll interval must be positive")
    deadline = clock() + duration if duration > 0 else None
    inode: Optional[int] = None
    offset = 0
    while True:
        try:
            stat = os.stat(path)
        except OSError:
            stat = None
        if stat is not None:
            if inode is None:
                inode = stat.st_ino
                offset = 0
            elif stat.st_ino != inode:
                shard = _shard_with_inode(path, inode, backups)
                if shard is not None:
                    _, tail = _complete_lines(shard, offset)
                    for record in tail:
                        yield record
                inode = stat.st_ino
                offset = 0
            elif stat.st_size < offset:
                offset = 0
            offset, records = _complete_lines(path, offset)
            for record in records:
                yield record
        if should_stop is not None and should_stop():
            return
        if deadline is not None and clock() >= deadline:
            return
        sleep(poll)
