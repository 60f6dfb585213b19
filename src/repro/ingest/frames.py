"""The engine-side event frame: ``dacce.engine.events.v1``.

Every observable action of a producer process — profile sample batches,
re-encoding pass reports, quarantined faults, runtime stat deltas,
heartbeats, run lifecycle — is serialized as one schema-versioned NDJSON
line (a *frame*).  Frames are the producer's entire external contract:
stdout is reserved for frames (human-readable output goes to stderr),
and the ingestion service re-envelopes each frame as the canonical
``dacce.events.v1`` stream (see :mod:`repro.ingest.envelope`).

Frame shape::

    {"schema": "dacce.engine.events.v1",
     "type": "profile.samples",
     "created_at": 1754650000.123,      # producer clock, unix seconds
     "seq": 17,                         # producer-local frame counter
     "trace": {"id": ..., "span": ...}, # optional span propagation
     "payload": {...}}                  # type-specific fields

Versioning rules (``docs/EVENTS.md``): the ``schema`` discriminator
never changes within v1; new frame *types* and new payload *fields* are
added freely (consumers ignore what they do not know); removing or
re-typing a field requires ``dacce.engine.events.v2``.  The ingestion
service accepts unknown types under the v1 schema and marks them
``skipped`` instead of rejecting them, so old services survive new
producers.

Sample batches carry **decoded paths**, not compact ids: the producer
owns the dictionaries and decodes through its memoized
:class:`~repro.core.decoder.DecodeCache`, so the ingestion plane stays
state-free and a persisted run log replays deterministically with no
decoding state on the service side (the same split
``cmd_profile_serve``'s in-process ``deliver`` hook already uses).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

#: Schema discriminator for producer frames.
FRAME_SCHEMA = "dacce.engine.events.v1"

#: Frame types the v1 ingestion service folds into live state.
FRAME_TYPES = frozenset(
    {
        "run.start",
        "run.complete",
        "profile.samples",
        "reencode.pass",
        "fault",
        "stats.delta",
        "heartbeat",
    }
)

#: Longest raw line the service echoes back inside a reject envelope.
MAX_RAW_ECHO = 200


class FrameError(ValueError):
    """A frame failed validation; ``reason`` is a stable slug."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def make_frame(
    type: str,
    payload: Dict[str, Any],
    created_at: float,
    seq: Optional[int] = None,
    trace: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Build one frame dict (callers serialize with :func:`frame_line`).

    ``seq`` is the producer's delivery sequence and feeds the service's
    ``(run, origin_seq)`` dedupe.  Frames synthesized outside the
    emitter's sequence space (e.g. a sink's spool-eviction ``fault``
    frame) pass ``None``: the key is omitted and the service never
    dedupes the frame — colliding with a real emitter seq would
    silently swallow it.

    ``trace`` is the additive span-propagation field
    (``{"id": <trace_id>, "span": <span_id>}``, see
    ``docs/OBSERVABILITY.md``): the emitter stamps the flush span's
    identity so the ingestion service can continue the trace.  Omitted
    entirely when span tracing is off, keeping pre-span frame bytes
    unchanged.
    """
    frame: Dict[str, Any] = {
        "schema": FRAME_SCHEMA,
        "type": type,
        "created_at": created_at,
        "payload": payload,
    }
    if seq is not None:
        frame["seq"] = seq
    if trace is not None:
        frame["trace"] = trace
    return frame


def frame_line(frame: Dict[str, Any]) -> str:
    """One NDJSON line (no trailing newline), compact separators."""
    return json.dumps(frame, separators=(",", ":"), sort_keys=True)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _require(condition: bool, reason: str, message: str) -> None:
    if not condition:
        raise FrameError(reason, message)


_INT_ONLY = frozenset((int,))


def _function_ids(path: List[Any]) -> bool:
    """Whether every element of ``path`` is an int (and not a bool).

    Decoded JSON holds exact ``int`` objects, so one C-level scan of the
    element types settles the common case; anything else (a bool, a
    float, an ``int`` subclass) takes the exact per-element test.
    """
    return _INT_ONLY.issuperset(map(type, path)) or all(
        isinstance(f, int) and not isinstance(f, bool) for f in path
    )


def _validate_samples_payload(payload: Dict[str, Any]) -> None:
    samples = payload.get("samples")
    _require(
        isinstance(samples, list),
        "bad-payload",
        "profile.samples payload needs a 'samples' list",
    )
    assert isinstance(samples, list)
    # Per-sample checks inline: this loop runs once per sample ingested,
    # and messages are formatted only for the sample that fails.
    for index, entry in enumerate(samples):
        if not isinstance(entry, dict):
            raise FrameError("bad-payload", "sample %d is not an object" % index)
        path = entry.get("path")
        if not (isinstance(path, list) and _function_ids(path)):
            raise FrameError(
                "bad-payload",
                "sample %d 'path' must be a list of function ids" % index,
            )
        weight = entry.get("weight", 1.0)
        if not (
            isinstance(weight, (int, float))
            and not isinstance(weight, bool)
            and weight >= 0
        ):
            raise FrameError(
                "bad-payload",
                "sample %d 'weight' must be a non-negative number" % index,
            )
        gts = entry.get("gts", 0)
        if not (isinstance(gts, int) and not isinstance(gts, bool) and gts >= 0):
            raise FrameError(
                "bad-payload",
                "sample %d 'gts' must be a non-negative integer" % index,
            )


def _validate_run_start_payload(payload: Dict[str, Any]) -> None:
    names = payload.get("names")
    if names is not None:
        _require(
            isinstance(names, dict),
            "bad-payload",
            "run.start 'names' must map function ids to display names",
        )


_PAYLOAD_VALIDATORS = {
    "profile.samples": _validate_samples_payload,
    "run.start": _validate_run_start_payload,
}


def validate_frame(obj: Any) -> Dict[str, Any]:
    """Validate one parsed frame; returns it (raises :class:`FrameError`).

    Enforces the envelope-level contract strictly — object shape, the
    ``schema`` discriminator, ``type``/``payload``/``created_at`` types —
    and the payload contract for the types the service folds.  Unknown
    types under the right schema pass validation (additive versioning);
    the service counts them as ``skipped``.
    """
    _require(isinstance(obj, dict), "not-an-object", "frame is not a JSON object")
    assert isinstance(obj, dict)
    schema = obj.get("schema")
    _require(
        schema == FRAME_SCHEMA,
        "bad-schema",
        "frame schema %r is not %r" % (schema, FRAME_SCHEMA),
    )
    type_ = obj.get("type")
    _require(
        isinstance(type_, str) and bool(type_),
        "bad-type",
        "frame 'type' must be a non-empty string",
    )
    payload = obj.get("payload")
    _require(
        isinstance(payload, dict),
        "bad-payload",
        "frame 'payload' must be an object",
    )
    created_at = obj.get("created_at")
    _require(
        isinstance(created_at, (int, float)) and not isinstance(created_at, bool),
        "bad-timestamp",
        "frame 'created_at' must be a unix timestamp",
    )
    seq = obj.get("seq")
    if seq is not None:
        _require(
            isinstance(seq, int) and not isinstance(seq, bool) and seq >= 0,
            "bad-seq",
            "frame 'seq' must be a non-negative integer",
        )
    trace = obj.get("trace")
    if trace is not None:
        _require(
            isinstance(trace, dict)
            and isinstance(trace.get("id"), str)
            and isinstance(trace.get("span"), str),
            "bad-trace",
            "frame 'trace' must be an object with string 'id' and 'span'",
        )
    assert isinstance(type_, str) and isinstance(payload, dict)
    validator = _PAYLOAD_VALIDATORS.get(type_)
    if validator is not None:
        validator(payload)
    return obj


def parse_frame(line: str) -> Dict[str, Any]:
    """Parse + validate one NDJSON line."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as error:
        raise FrameError("bad-json", "frame line is not JSON: %s" % error)
    return validate_frame(obj)


def is_known_type(type_: str) -> bool:
    return type_ in FRAME_TYPES


# ----------------------------------------------------------------------
# payload builders (the emitter's vocabulary, importable by tests)
# ----------------------------------------------------------------------
def sample_entry(
    path: Iterable[int],
    weight: float,
    gts: int,
    thread: int = 0,
    partial: bool = False,
    reason: Optional[str] = None,
) -> Dict[str, Any]:
    """One decoded sample inside a ``profile.samples`` payload."""
    entry: Dict[str, Any] = {
        "path": list(path),
        "weight": weight,
        "gts": gts,
        "thread": thread,
    }
    if partial:
        entry["partial"] = True
        if reason is not None:
            entry["reason"] = reason
    return entry


def samples_payload(entries: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {"samples": entries, "count": len(entries)}
