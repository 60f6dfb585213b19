"""Span-tracing overhead: what end-to-end tracing costs each plane.

The spans acceptance bar has two halves:

* **disabled** — tracing off (the default) must leave the columnar hot
  path at its established rate (``encode.columnar_ns_per_event`` in
  ``BENCH_CORE.json``): the only residue is one ``spans.enabled``
  boolean guard per slow-path site, none of which sit inside the
  kernel's inner loop.  A/A comparison of two identically-disabled
  runs bounds the measurement noise; the disabled run must sit within
  that noise.
* **enabled** — with a :class:`SpanRecorder` attached, producer-side
  overhead (engine pass spans + the emitter's per-flush root span and
  ``trace`` stamping) must stay within **2%** of the disabled hot
  path.

Methodology — **decomposed**, following ``bench_ingest_overhead.py``:
end-to-end subtraction cannot resolve a 2% budget on a ~0.25 µs/event
pass under scheduler jitter, so each term is timed where it has clean
signal:

* **engine** — median columnar pass wall time, disabled vs enabled
  (spans fire at pass boundaries — kernel compile, re-encode — never
  per event, so the steady-state delta is the guard alone);
* **emitter** — wall time accumulated inside ``emitter.flush()``
  during real passes, traced vs untraced (the flush opens the root
  span and stamps the ``trace`` fragment into every frame);
* **ingest** — ``ingest_lines`` wall time over one captured frame
  batch against a fresh service, traced vs untraced (admit/validate/
  fold/publish spans plus exemplar capture).

Results merge into ``BENCH_CORE.json`` as a ``span_overhead`` section
(read-modify-write: other sections are preserved), plus a rendered
copy under ``benchmarks/results/span_overhead.txt``.

Run with::

    PYTHONPATH=src python benchmarks/bench_span_overhead.py [--quick] [--check]

``--check`` exits non-zero when the enabled producer-side overhead
exceeds the budget — the CI spans-smoke job gates on it.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")

BUDGET_PCT = 2.0


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _steady_workload(calls):
    from repro.core.columnar import EventColumns
    from repro.core.engine import DacceEngine
    from repro.program.generator import GeneratorConfig, generate_program
    from repro.program.trace import (
        TraceExecutor,
        WorkloadSpec,
        run_workload_columnar,
    )

    program = generate_program(
        GeneratorConfig(
            seed=5,
            functions=60,
            edges=150,
            indirect_fraction=0.0,
            tail_fraction=0.0,
            recursive_sites=0,
            library_functions=0,
        )
    )
    spec = WorkloadSpec(calls=calls, seed=2, sample_period=0)
    cols = EventColumns.from_compact(
        TraceExecutor(program, spec).compact_events()
    )

    def warmed_engine(spans=None):
        engine = DacceEngine(spans=spans)
        run_workload_columnar(program, spec, engine)
        engine.reencode()
        return engine

    return warmed_engine, cols


def _columnar_pass_times(warmed_engine, cols, repeats, spans_factory):
    """Interleaved A/B/... columnar passes.

    Sequential measurement drifts with CPU frequency over the minutes a
    run takes, which shows up as a phantom regression in whichever
    configuration runs later; interleaving one pass per configuration
    per round keeps every configuration under the same drift.
    """
    engines = [warmed_engine(spans=factory()) for factory in spans_factory]
    for engine in engines:
        engine.process_columns(cols)  # warm: compiles the kernel
    times = [[] for _ in engines]
    for _ in range(repeats):
        for index, engine in enumerate(engines):
            start = time.perf_counter()
            engine.process_columns(cols)
            times[index].append(time.perf_counter() - start)
    return engines, [_median(series) for series in times]


class _EmitterRig:
    """One attached emitter whose ``flush()`` wall time is accumulated."""

    def __init__(self, warmed_engine, spans=None):
        from repro.ingest import FrameEmitter, MemorySink

        self.engine = warmed_engine()
        self.sink = MemorySink()
        self.emitter = FrameEmitter(self.sink, run="bench-span", spans=spans)
        self.emitter.attach(self.engine, every=64)
        self.spent = 0.0
        inner_flush = self.emitter.flush

        def timed_flush():
            start = time.perf_counter()
            inner_flush()
            self.spent += time.perf_counter() - start

        self._timed = timed_flush
        self._inner = inner_flush

    def warm_pass(self, cols):
        self.engine.process_columns(cols)
        self.emitter.flush()  # fills the serialized-entry cache
        return list(self.sink.lines)

    def timed_pass(self, cols):
        del self.sink.lines[:]
        self.emitter.flush = self._timed
        self.engine.process_columns(cols)
        self.emitter.flush()
        self.emitter.flush = self._inner


def _emitter_flush_costs(warmed_engine, cols, repeats, spans):
    """Per-pass ``flush()`` cost, untraced vs traced, interleaved."""
    rig_off = _EmitterRig(warmed_engine)
    rig_on = _EmitterRig(warmed_engine, spans=spans)
    rig_off.warm_pass(cols)
    captured_lines = rig_on.warm_pass(cols)
    for _ in range(repeats):
        rig_off.timed_pass(cols)
        rig_on.timed_pass(cols)
    rig_off.emitter.detach()
    rig_on.emitter.detach()
    return (
        rig_off.spent / repeats,
        rig_on.spent / repeats,
        captured_lines,
        rig_on.emitter.run,
    )


def _ingest_costs(lines, run_id, repeats):
    """Per-line ``ingest_lines`` cost, untraced vs traced, interleaved
    over fresh services (the dedupe index makes re-ingest into one
    service a different, cheaper code path)."""
    from repro.ingest import IngestService
    from repro.obs import SpanRecorder

    times = {False: [], True: []}
    for _ in range(repeats):
        for traced in (False, True):
            spans = SpanRecorder("ingest-bench") if traced else None
            service = IngestService(spans=spans)
            start = time.perf_counter()
            service.ingest_lines(run_id, lines)
            times[traced].append(time.perf_counter() - start)
    per_line = max(1, len(lines))
    return (
        _median(times[False]) / per_line,
        _median(times[True]) / per_line,
    )


def bench_span_overhead(calls, repeats):
    from repro.obs import SpanRecorder

    warmed_engine, cols = _steady_workload(calls)
    events = len(cols)

    # Engine: disabled (twice, for A/A noise) vs enabled, interleaved.
    engines, medians = _columnar_pass_times(
        warmed_engine,
        cols,
        repeats,
        [
            lambda: None,
            lambda: None,
            lambda: SpanRecorder("engine-bench"),
        ],
    )
    base_a, base_b, traced_s = medians
    traced_engine = engines[2]
    disabled_s = _median([base_a, base_b])
    disabled_ns = disabled_s / events * 1e9
    noise_pct = abs(base_b - base_a) / disabled_s * 100.0
    engine_delta_ns = (traced_s - disabled_s) / events * 1e9

    # Emitter: flush cost per pass, untraced vs traced, interleaved.
    flush_off, flush_on, lines, run_id = _emitter_flush_costs(
        warmed_engine, cols, repeats, SpanRecorder("producer-bench")
    )
    emitter_delta_ns = max(0.0, flush_on - flush_off) / events * 1e9

    # Ingest: per-line fold cost, untraced vs traced, interleaved.
    ingest_off, ingest_on = _ingest_costs(lines, run_id, repeats)

    producer_overhead_ns = max(0.0, engine_delta_ns) + emitter_delta_ns
    producer_overhead_pct = 100.0 * producer_overhead_ns / disabled_ns

    return {
        "events": events,
        "calls": calls,
        "budget_pct": BUDGET_PCT,
        "disabled": {
            "columnar_ns_per_event": round(disabled_ns, 1),
            "aa_noise_pct": round(noise_pct, 2),
        },
        "enabled": {
            "columnar_ns_per_event": round(traced_s / events * 1e9, 1),
            "engine_delta_ns_per_event": round(engine_delta_ns, 1),
            "engine_spans_recorded": len(traced_engine.spans),
            "emitter_flush_ms_per_pass_off": round(flush_off * 1e3, 3),
            "emitter_flush_ms_per_pass_on": round(flush_on * 1e3, 3),
            "emitter_delta_ns_per_event": round(emitter_delta_ns, 1),
            "producer_overhead_ns_per_event": round(producer_overhead_ns, 1),
            "producer_overhead_pct": round(producer_overhead_pct, 2),
            "ingest_us_per_line_off": round(ingest_off * 1e6, 2),
            "ingest_us_per_line_on": round(ingest_on * 1e6, 2),
            "ingest_overhead_pct": round(
                100.0 * max(0.0, ingest_on - ingest_off) / ingest_off, 2
            ),
            "lines_per_pass": len(lines),
        },
        "methodology": "decomposed: median columnar pass (disabled A/A "
        "vs traced) + flush wall time inside real passes (traced vs "
        "untraced) + ingest_lines over one captured batch",
    }


def render(section):
    disabled = section["disabled"]
    enabled = section["enabled"]
    return "\n".join(
        [
            "span-tracing overhead (%d events)" % section["events"],
            "",
            "  disabled : %8.1f ns/event columnar  (A/A noise %.2f%%)"
            % (disabled["columnar_ns_per_event"], disabled["aa_noise_pct"]),
            "  enabled  : %8.1f ns/event columnar  (engine %+.1f ns,"
            " emitter flush %+.1f ns => producer %+.2f%%)"
            % (
                enabled["columnar_ns_per_event"],
                enabled["engine_delta_ns_per_event"],
                enabled["emitter_delta_ns_per_event"],
                enabled["producer_overhead_pct"],
            ),
            "  ingest   : %8.2f us/line untraced, %.2f us/line traced"
            " (%+.2f%%)"
            % (
                enabled["ingest_us_per_line_off"],
                enabled["ingest_us_per_line_on"],
                enabled["ingest_overhead_pct"],
            ),
            "",
            "budget: producer-side enabled overhead within %.0f%% of the"
            " disabled hot path;" % section["budget_pct"],
            "disabled hot path carries only per-site boolean guards"
            " (spans fire at pass",
            "boundaries, never per event — see docs/OBSERVABILITY.md).",
        ]
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload, fewer repeats (CI)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when enabled overhead exceeds budget")
    parser.add_argument("--output",
                        default=os.path.join(REPO_ROOT, "BENCH_CORE.json"))
    args = parser.parse_args(argv)

    calls = 10_000 if args.quick else 40_000
    repeats = 3 if args.quick else 9

    section = bench_span_overhead(calls, repeats)
    section["generated_by"] = "benchmarks/bench_span_overhead.py" + (
        " --quick" if args.quick else ""
    )

    report = {}
    if os.path.exists(args.output):
        with open(args.output) as handle:
            report = json.load(handle)
    report.setdefault("schema", 1)
    report["span_overhead"] = section
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    text = render(section)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "span_overhead.txt"), "w") as handle:
        handle.write(text + "\n")
    print(text)
    print("\nwrote %s" % args.output)

    if args.check:
        overhead = section["enabled"]["producer_overhead_pct"]
        if overhead > section["budget_pct"]:
            print(
                "FAIL: producer overhead %.2f%% exceeds %.1f%% budget"
                % (overhead, section["budget_pct"]),
                file=sys.stderr,
            )
            return 1
        print("OK: producer overhead %.2f%% within %.1f%% budget"
              % (overhead, section["budget_pct"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
