"""Traced-run instrumentation: spans around calls into each layer.

Only the benchmark's traced run (``--trace 1``) installs these wrappers;
the end-to-end run never does.  Each wrapper replaces one public
function of the package for the duration of a measured unit and opens a
span on the package's own ``repro.obs.spans.SpanRecorder``, with the
layer as its stage.  The recorder parents spans by call nesting on each
thread and mirrors every record to a JSONL stream; a layer's self time
is its spans' duration minus the time their child spans cover.
"""

import functools
import itertools

import repro.core.engine as engine_module
from repro.core.decoder import Decoder
from repro.core.engine import DacceEngine
from repro.ingest.emitter import FrameEmitter
from repro.ingest.service import IngestService
from repro.obs.spans import SpanRecorder

#: (owner, attribute, layer) for every wrapped call.  ``flush_samples`` is
#: wrapped beside ``flush`` because re-encoding passes call it directly.
PRODUCER_TARGETS = (
    (DacceEngine, "process_columns", "engine"),
    (DacceEngine, "reencode", "reencode"),
    (engine_module, "compile_columnar_kernel", "kernel_compile"),
    (FrameEmitter, "flush", "emitter"),
    (FrameEmitter, "flush_samples", "emitter"),
    (Decoder, "decode", "decode"),
    (Decoder, "decode_best_effort", "decode"),
)
COLLECTOR_TARGETS = (
    (IngestService, "ingest_lines", "ingest"),
    (IngestService, "cct_json", "cct"),
)

#: Spans retained between two ``take`` calls (one traced pass or one
#: collector phase holds a few thousand).
CAPACITY = 1 << 18


class LayerSpans:
    """Installs the wrappers and hands out the spans they recorded."""

    def __init__(self, stream):
        ids = itertools.count(1)
        # Sequential ids: cheaper than the default random ones, and the
        # JSONL reads in order.
        self.recorder = SpanRecorder(
            "perfbench", capacity=CAPACITY, stream=stream,
            id_source=lambda: ("%032x" % next(ids), "%016x" % next(ids)),
        )
        self._installed = []
        self.dropped = 0

    def _wrap(self, original, name, layer):
        recorder = self.recorder
        best_effort = name == "Decoder.decode_best_effort"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(name, stage=layer) as span:
                result = original(*args, **kwargs)
                if best_effort:
                    span.set(partial=not result.complete)
            return result

        return wrapper

    def install(self, targets):
        for owner, attr, layer in targets:
            original = getattr(owner, attr)
            owner_name = getattr(owner, "__name__", "")
            name = "%s.%s" % (owner_name.rsplit(".", 1)[-1], attr)
            setattr(owner, attr, self._wrap(original, name, layer))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def take(self):
        """The spans recorded since the last ``take`` (spans the ring had
        no room for are counted in ``dropped``)."""
        recorder = self.recorder
        spans = recorder.spans()
        self.dropped += recorder.dropped
        recorder.clear()
        return spans

    def close(self):
        self.recorder.flush()


def self_times(spans):
    """``{span id: duration minus the time its recorded children cover}``."""
    out = {span["span"]: span["dur"] for span in spans}
    for span in spans:
        parent = span.get("parent")
        if parent in out:
            out[parent] -= span["dur"]
    return out


def layer_times(spans):
    """``{layer: (count, inclusive_s, self_s)}`` over ``spans``.

    Inclusive time counts only spans not nested in a span of the same
    layer, so recursion and ``flush`` -> ``flush_samples`` are not
    counted twice.
    """
    layer_of = {span["span"]: span["stage"] for span in spans}
    own = self_times(spans)
    out = {}
    for span in spans:
        layer = span["stage"]
        count, inclusive, self_time = out.get(layer, (0, 0.0, 0.0))
        outermost = layer_of.get(span.get("parent")) != layer
        out[layer] = (
            count + (1 if outermost else 0),
            inclusive + (span["dur"] if outermost else 0.0),
            self_time + own[span["span"]],
        )
    return out


def root_time(spans):
    """Total duration of the spans that have no recorded parent."""
    ids = {span["span"] for span in spans}
    return sum(span["dur"] for span in spans if span.get("parent") not in ids)
