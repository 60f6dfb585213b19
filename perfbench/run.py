"""DACCE end-to-end benchmark: real Python programs, producer to collector.

Usage::

    python3 perfbench/run.py --workload interp --seed 1 --seconds 20 --trace 0

Every workload runs two phases on inputs generated from ``--seed``:

1. the producer phase (``perfbench/producer.py``): the workload's
   program run untraced, under a no-op profile hook and under a fresh
   ``PythonDacceTracer`` + ``FrameEmitter``, interleaved;
2. the collector phase (``perfbench/collector.py``): frames recorded from
   the same program replayed by several producers into an
   ``IngestServer`` over HTTP.

With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric; with ``--trace 1`` a separate traced run
wraps the package's layer entry points, prints every per-layer metric
and writes its spans as JSONL under ``.perfbench_out/``.  The exit code
is non-zero when any correctness check fails.  Workload choices are
recorded in ``BENCHMARK.json``, the layer-to-metric map in
``perfbench/README.md``.
"""

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH_ROOT = os.path.join(ROOT, ".perfbench_tmp")
SPAN_DIR = os.path.join(ROOT, ".perfbench_out")

#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 7


def workloads():
    from perfbench.harness import Workload
    from perfbench.programs import corpus, interp

    return {
        # Few code objects, deep mutual recursion: the engine's back-edge
        # path and re-encoding dominate; frontend and decode are cheap.
        "interp": Workload(
            name="interp", program=interp, size=300, record_size=450, check_every=60,
            calibration_repeats=2, sample_every=64, producers=4,
            post_rate=20.0, producer_share=0.6, open_loop_share=0.75,
        ),
        # Many code objects and contexts, shallow stacks, many C calls:
        # frontend mapping, decode and frame serialisation dominate.
        "stdlib": Workload(
            name="stdlib", program=corpus, size=2000, record_size=3000, check_every=3,
            calibration_repeats=3, sample_every=64, producers=4,
            post_rate=24.0, producer_share=0.65, open_loop_share=0.6,
        ),
        # Dense sampling and eight producers: the emitter and the
        # collector (HTTP, validate, fold, persist, CCT) dominate.
        "ingest": Workload(
            name="ingest", program=corpus, size=3000, record_size=3000, check_every=3,
            calibration_repeats=3, sample_every=4, producers=8,
            post_rate=12.0, producer_share=0.55, open_loop_share=0.6,
        ),
    }


def record_frames(workload, batch, expected, checks):
    """POST bodies of one traced pass, as ``HTTPFrameSink`` would send them."""
    from repro.ingest.emitter import FrameEmitter
    from repro.pytrace import PythonDacceTracer

    from perfbench.collector import RecordingSink
    from perfbench.harness import noop_probe

    sink = RecordingSink()
    tracer = PythonDacceTracer()
    emitter = FrameEmitter(sink, run="perfbench", producer="perfbench")
    emitter.attach(tracer.engine, every=workload.sample_every)
    result = tracer.run(
        workload.program.run, batch, noop_probe, workload.check_every
    )
    emitter.complete()
    checks.check(result == expected, "record-result")
    checks.check(emitter.frames_dropped == 0, "record-dropped")
    return sink.bodies


def set_up(workload, seed, scratch, checks, spans):
    """Inputs, reference result, recorded frames and a running collector."""
    from perfbench.collector import CollectorPhase, FrameSet
    from perfbench.harness import noop_probe

    program = workload.program
    batch = program.make_inputs(seed, workload.size)
    # The untraced result is the reference; this pass also warms the
    # interpreter's caches (regex compilation, lazy imports).
    expected = program.run(batch, noop_probe, workload.check_every)
    recorded = program.make_inputs(seed, workload.record_size)
    frames = FrameSet(
        record_frames(
            workload, recorded,
            program.run(recorded, noop_probe, workload.check_every), checks,
        )
    )
    data_dir = tempfile.mkdtemp(prefix="ingest-", dir=scratch)
    collector = CollectorPhase(workload, frames, data_dir, checks, spans)
    return batch, expected, collector, data_dir


def run(workload, seed, seconds, trace):
    from statistics import median

    from perfbench.harness import Checks, peak_rss_mb
    from perfbench.layers import LayerSpans
    from perfbench.producer import ProducerPhase

    checks = Checks()
    spans = None
    if trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        span_file = open(os.path.join(
            SPAN_DIR, "spans-%s-seed%d.jsonl" % (workload.name, seed)), "w")
        spans = LayerSpans(span_file)
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT)
    collector = None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            if collector is not None:
                collector.close()
                shutil.rmtree(data_dir)
            started = time.perf_counter()
            batch, expected, collector, data_dir = set_up(
                workload, seed, scratch, checks, spans
            )
            setup_times.append(time.perf_counter() - started)
        # Set-up objects (inputs, frames, the first passes' garbage) are
        # never freed; keep full collections from rescanning them inside
        # the timed passes and requests.
        gc.collect()
        gc.freeze()

        producer_seconds = seconds * workload.producer_share
        producer = ProducerPhase(workload, batch, expected, scratch, checks)
        metrics = producer.run(producer_seconds, spans)
        collected, extra = collector.run(seconds - producer_seconds)
        metrics.update(collected)
        if trace:
            checks.check(spans.dropped == 0, "span-overflow")
        else:
            metrics["setup_s"] = (median(setup_times), "s")
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            print(
                "%s: %d producer rounds; open loop %d POSTs at %g/s, "
                "%d with samples: p50 %.2f ms, p90 %.2f ms (%.2f x ref), generator late p90 "
                "%.3f ms; "
                "drain %d POSTs, %.0f samples/s, %d GET /cct p50 %.1f ms; "
                "CCT %d nodes"
                % (workload.name, len(producer.rounds), extra["posts"],
                   workload.post_rate, extra["sample_posts"],
                   extra["post_ms_p50"],
                   extra["post_ms_p90"], extra["post_p90_x_ref"],
                   extra["late_ms_p90"],
                   extra["drain_posts"], extra["samples_per_s"],
                   extra["gets"], extra["cct_get_ms_p50"], extra["nodes"]),
                file=sys.stderr,
            )
    finally:
        if collector is not None:
            collector.close()
        shutil.rmtree(scratch, ignore_errors=True)
        if trace:
            spans.uninstall()
            span_file.close()
    checks.report()
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro package under %s" % ROOT, file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    table = workloads()
    if args.workload not in table:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(sorted(table))))
    result = run(table[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
