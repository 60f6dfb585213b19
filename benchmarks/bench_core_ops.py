"""Micro-benchmarks of the core operations (true pytest-benchmark timing).

Not a paper artifact — these quantify the reproduction's own hot paths:
event processing throughput, re-encoding latency, decode latency, and
the related-work baselines on identical event streams for a like-for-like
comparison of bookkeeping work (stack walk vs CCT vs PCC vs DACCE).
"""

import pytest


@pytest.fixture(scope="module")
def event_stream():
    from repro.program.generator import GeneratorConfig, generate_program
    from repro.program.trace import TraceExecutor, WorkloadSpec

    program = generate_program(
        GeneratorConfig(seed=5, functions=80, edges=200, recursive_sites=4,
                        indirect_fraction=0.1, tail_fraction=0.04)
    )
    spec = WorkloadSpec(calls=6_000, seed=2, sample_period=97,
                        recursion_affinity=0.4)
    events = list(TraceExecutor(program, spec).events())
    return program, events


def test_bench_dacce_event_throughput(benchmark, event_stream):
    from repro.core.engine import DacceEngine

    program, events = event_stream

    def run():
        engine = DacceEngine(root=program.main)
        for event in events:
            engine.on_event(event)
        return engine

    engine = benchmark(run)
    assert engine.stats.calls == 6_000


def test_bench_dacce_columnar_throughput(benchmark, event_stream):
    """Same stream as test_bench_dacce_event_throughput through the
    columnar struct-of-arrays path and the code-generated dispatch
    kernel (``process_columns``)."""
    from repro.core.columnar import EventColumns
    from repro.core.engine import DacceEngine
    from repro.core.events import compact

    program, events = event_stream
    columns = EventColumns.from_compact(
        [compact(event) for event in events]
    )

    def run():
        engine = DacceEngine(root=program.main)
        engine.process_columns(columns)
        return engine

    engine = benchmark(run)
    assert engine.stats.calls == 6_000
    assert engine.fastpath.hits > 0
    assert engine.fastpath.compiles >= 1


def test_bench_stackwalk_event_throughput(benchmark, event_stream):
    from repro.baselines.stackwalk import StackWalkEngine

    program, events = event_stream

    def run():
        engine = StackWalkEngine(root=program.main)
        engine.run(events)
        return engine

    assert benchmark(run).stats.calls == 6_000


def test_bench_cct_event_throughput(benchmark, event_stream):
    from repro.baselines.cct import CctEngine

    program, events = event_stream

    def run():
        engine = CctEngine(root=program.main)
        engine.run(events)
        return engine

    assert benchmark(run).stats.calls == 6_000


def test_bench_pcc_event_throughput(benchmark, event_stream):
    from repro.baselines.pcc import PccEngine

    program, events = event_stream

    def run():
        engine = PccEngine(root=program.main)
        engine.run(events)
        return engine

    assert benchmark(run).stats.calls == 6_000


def test_bench_encoder_latency(benchmark):
    """Re-encoding pass latency on an xalancbmk-sized dynamic graph."""
    import random

    from repro.core.callgraph import CallGraph
    from repro.core.encoder import Encoder, frequency_order

    rng = random.Random(3)
    graph = CallGraph(0)
    site = 1
    for node in range(1, 2_000):
        graph.add_edge(rng.randrange(node), node, site, classify=False)
        site += 1
    for _ in range(5_000):
        caller = rng.randrange(1_999)
        graph.add_edge(caller, rng.randrange(caller + 1, 2_000), site,
                       classify=False)
        site += 1
    encoder = Encoder(order_policy=frequency_order)
    dictionary = benchmark(encoder.encode, graph)
    assert dictionary.num_edges == graph.num_edges


def test_bench_decode_latency(benchmark, event_stream):
    from repro.core.engine import DacceEngine

    program, events = event_stream
    engine = DacceEngine(root=program.main)
    for event in events:
        engine.on_event(event)
    decoder = engine.decoder()
    samples = engine.samples
    assert samples

    def run():
        for sample in samples:
            decoder.decode(sample)
        return len(samples)

    assert benchmark(run) == len(samples)


def test_bench_decode_latency_memoized(benchmark, event_stream):
    """Decode the same log through a warm :class:`DecodeCache`."""
    from repro.core.decoder import DecodeCache
    from repro.core.engine import DacceEngine

    program, events = event_stream
    engine = DacceEngine(root=program.main)
    for event in events:
        engine.on_event(event)
    decoder = engine.decoder()
    decoder.cache = DecodeCache(capacity=4096)
    samples = engine.samples
    for sample in samples:  # warm the cache outside the timed region
        decoder.decode(sample)

    def run():
        for sample in samples:
            decoder.decode(sample)
        return len(samples)

    assert benchmark(run) == len(samples)
    assert decoder.cache.hits >= len(samples)
