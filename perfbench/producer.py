"""Producer phase: a traced batch program against in-process baselines.

One round runs the workload's program three ways on the same input:

* untraced;
* under a no-op ``sys.setprofile`` hook (the calibration: what the
  interpreter charges any profiler);
* under a fresh ``PythonDacceTracer`` with a ``FrameEmitter`` attached,
  writing frames to a ``FileFrameSink`` (cold discovery and re-encoding
  on every pass, as a user pays it).

The baseline passes run on both sides of the traced pass in mirrored
order, so a drift in machine speed during the round cancels out of the
end-to-end figures, which are ratios of these passes; absolute per-call
times appear only as per-layer metrics.
The run is closed-loop and single-threaded.
"""

import gc
import os
import sys
import time
from statistics import median

from repro.ingest.emitter import FrameEmitter
from repro.ingest.sinks import FileFrameSink
from repro.pytrace import PythonDacceTracer, contexts_agree, walk_stack

from perfbench.harness import noop_probe
from perfbench.layers import PRODUCER_TARGETS, layer_times, root_time


def _noop_hook(frame, event, arg):
    pass


class Checkpoints:
    """Context checks at the program's fixed checkpoints.

    In a traced pass ``probe`` runs inside the traced program: it takes
    the tracer's sample and walks the interpreter's frames at the same
    point.  The decode happens after the pass, outside the timed region
    (dictionaries are immutable, so a later decode is identical).
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.pairs = []

    def probe(self):
        self.pairs.append((self.tracer.sample(), walk_stack(self.tracer)))

    def failures(self):
        return sum(
            not contexts_agree(self.tracer.decode(sample), walked)
            for sample, walked in self.pairs
        )


def _counts(tracer, emitter):
    """Counts that must repeat exactly for a given input."""
    engine = tracer.engine
    fp = engine.fastpath
    return (
        engine.stats.calls, engine.stats.returns, engine.stats.reencodings,
        fp.hits, fp.misses, fp.batches, fp.compiles, engine.max_id,
        engine.stats.profile_samples, emitter.frames_emitted,
        tracer.num_functions, tracer.num_callsites,
    )


class ProducerPhase:
    def __init__(self, workload, batch, expected, scratch, checks):
        self.workload = workload
        self.batch = batch
        self.expected = expected
        self.scratch = scratch
        self.checks = checks
        self.reference_counts = None
        self.rounds = []

    # -- the three pass kinds -----------------------------------------
    def untraced(self):
        program = self.workload.program
        gc.collect()
        start = time.perf_counter()
        result = program.run(self.batch, noop_probe, self.workload.check_every)
        elapsed = time.perf_counter() - start
        self.checks.check(result == self.expected)
        return elapsed

    def noop_hook(self):
        program = self.workload.program
        gc.collect()
        start = time.perf_counter()
        sys.setprofile(_noop_hook)
        try:
            result = program.run(
                self.batch, noop_probe, self.workload.check_every
            )
        finally:
            sys.setprofile(None)
        elapsed = time.perf_counter() - start
        self.checks.check(result == self.expected)
        return elapsed

    def traced(self, spans=None):
        """One cold traced pass; returns (seconds, facts for layers)."""
        workload = self.workload
        path = os.path.join(self.scratch, "frames.ndjson")
        sink = FileFrameSink(path)
        tracer = PythonDacceTracer()
        emitter = FrameEmitter(sink, run="perfbench", producer="perfbench")
        emitter.attach(tracer.engine, every=workload.sample_every)
        checkpoints = Checkpoints(tracer)
        if spans is not None:
            spans.install(PRODUCER_TARGETS)
        gc.collect()
        start = time.perf_counter()
        tracer.start()
        try:
            result = workload.program.run(
                self.batch, checkpoints.probe, workload.check_every
            )
        finally:
            tracer.stop()
        emitter.complete()
        elapsed = time.perf_counter() - start
        if spans is not None:
            spans.uninstall()
        sink.close()
        frame_bytes = os.path.getsize(path)
        os.remove(path)

        checks = self.checks
        checks.check(result == self.expected)
        checks.check(checkpoints.pairs != [])
        checks.add(len(checkpoints.pairs), checkpoints.failures())
        checks.check(emitter.frames_dropped == 0 and emitter.sink_errors == 0)
        checks.check(
            emitter.samples_emitted == tracer.engine.stats.profile_samples
        )
        counts = _counts(tracer, emitter)
        if self.reference_counts is None:
            self.reference_counts = counts
        # Exact-count determinism: a fresh tracer on the same input must
        # repeat every count.
        checks.check(counts == self.reference_counts, "count-mismatch")
        facts = None
        if spans is not None:
            facts = {
                "tracer": tracer,
                "emitter": emitter,
                "spans": spans.take(),
                "bytes": frame_bytes,
            }
        return elapsed, facts

    # -- the phase -----------------------------------------------------
    def run(self, seconds, spans=None):
        """Interleaved rounds for ``seconds``; returns end-to-end metrics.

        With ``spans`` each round adds a traced pass with span wrappers
        installed, and per-layer metrics are returned instead.
        """
        deadline = time.perf_counter() + seconds
        layer_rounds = []
        half = self.workload.calibration_repeats
        while not self.rounds or time.perf_counter() < deadline:
            # Baseline passes on both sides of the traced pass(es), in
            # mirrored order, so a drift in machine speed during the
            # round cancels out of the ratios.
            untraced = []
            noop = []
            for _ in range(half):
                untraced.append(self.untraced())
                noop.append(self.noop_hook())
            times = {"traced": self.traced()[0]}
            if spans is not None:
                times["spans"], facts = self.traced(spans)
                layer_rounds.append((times, facts))
            for _ in range(half):
                noop.append(self.noop_hook())
                untraced.append(self.untraced())
            times["untraced"] = sum(untraced) / len(untraced)
            times["noop"] = sum(noop) / len(noop)
            self.rounds.append(times)
        if spans is not None:
            metrics = self._layer_metrics(layer_rounds)
            metrics["pytrace.c_event_frac"] = (self.c_event_frac(), "ratio")
            return metrics
        return self._end_to_end()

    def c_event_frac(self):
        """Share of profile-hook events that are C calls, returns or raises."""
        counts = {"c": 0, "all": 0}

        def count(frame, event, arg):
            counts["all"] += 1
            if event.startswith("c_"):
                counts["c"] += 1

        sys.setprofile(count)
        try:
            self.workload.program.run(
                self.batch, noop_probe, self.workload.check_every
            )
        finally:
            sys.setprofile(None)
        return counts["c"] / counts["all"]

    def _end_to_end(self):
        overhead = []
        slowdown = []
        for times in self.rounds:
            base = times["untraced"]
            overhead.append((times["traced"] - base) / (times["noop"] - base))
            slowdown.append(times["traced"] / base)
        return {
            "overhead_x_noop": (median(overhead), "x"),
            "slowdown": (median(slowdown), "x"),
        }

    def _layer_metrics(self, layer_rounds):
        per_round = [self._layers_of(times, facts) for times, facts in layer_rounds]
        keys = per_round[0].keys()
        metrics = {key: median([row[key][0] for row in per_round]) for key in keys}
        units = {key: per_round[0][key][1] for key in keys}
        return {key: (metrics[key], units[key]) for key in keys}

    @staticmethod
    def _layers_of(times, facts):
        tracer = facts["tracer"]
        emitter = facts["emitter"]
        spans = facts["spans"]
        engine = tracer.engine
        calls = engine.stats.calls
        events = calls + engine.stats.returns
        layers = layer_times(spans)

        def layer(name):
            return layers.get(name, (0, 0.0, 0.0))

        decode_spans = [
            s for s in spans if s["name"] == "Decoder.decode_best_effort"
        ]
        decodes, _, decode_self = layer("decode")
        compiles, compile_s, _ = layer("kernel_compile")
        passes, reencode_s, _ = layer("reencode")
        _, emitter_s, _ = layer("emitter")
        samples = emitter.samples_emitted
        noop = times["noop"] - times["untraced"]
        return {
            "hook.noop_ns_per_call": (noop / calls * 1e9, "ns"),
            "pytrace.self_ns_per_call": (
                (times["spans"] - times["noop"] - root_time(spans)) / calls * 1e9,
                "ns",
            ),
            "pytrace.functions": (tracer.num_functions, "count"),
            "pytrace.callsites": (tracer.num_callsites, "count"),
            "engine.self_ns_per_event": (layer("engine")[2] / events * 1e9, "ns"),
            "engine.events": (events, "count"),
            "engine.batches": (engine.fastpath.batches, "count"),
            "engine.kernel_hit_rate": (engine.fastpath.hit_rate, "ratio"),
            "engine.kernel_compiles": (compiles, "count"),
            "engine.kernel_compile_ms": (compile_s * 1e3, "ms"),
            "engine.max_id": (engine.max_id, "count"),
            "ccstack.pushes_per_call": (
                engine.ccstack_stats()["pushes"] / calls, "ratio"),
            "reencode.passes": (passes, "count"),
            "reencode.ms": (reencode_s * 1e3, "ms"),
            "dictionary.live": (len(engine.dictionaries), "count"),
            "decode.calls": (decodes, "count"),
            "decode.self_us_per_call": (
                decode_self / decodes * 1e6 if decodes else 0.0, "us"),
            "decode.cache_hit_rate": (
                1.0 - len(decode_spans) / samples if samples else 0.0, "ratio"),
            "decode.partial_frac": (
                sum(1 for s in decode_spans if s["attrs"]["partial"])
                / len(decode_spans)
                if decode_spans else 0.0,
                "ratio",
            ),
            "emitter.flush_ms": (emitter_s * 1e3, "ms"),
            "emitter.us_per_sample": (
                emitter_s / samples * 1e6 if samples else 0.0, "us"),
            "emitter.bytes_per_sample": (
                facts["bytes"] / samples if samples else 0.0, "B"),
            "emitter.frames": (emitter.frames_emitted, "count"),
            "trace.overhead_frac": (times["spans"] / times["traced"] - 1.0, "ratio"),
        }
