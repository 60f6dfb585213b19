"""Unit tests for the hot-path fast lane (PR 4).

Covers the compact event wire format, the generated dispatch kernel
(entry-dict contents, identity-based validity, subclass guard), the
:class:`DecodeCache` LRU, and the steady-state hit-rate expectation the
CI perf-smoke job gates on.
"""

import pytest

from repro.baselines.globalid import GlobalIdEngine
from repro.baselines.pcce import PcceEngine
from repro.core.context import CallingContext
from repro.core.decoder import DecodeCache
from repro.core.engine import DacceEngine
from repro.core.events import (
    EV_CALL,
    CallEvent,
    CallKind,
    LibraryLoadEvent,
    ReturnEvent,
    SampleEvent,
    ThreadExitEvent,
    ThreadStartEvent,
    compact,
    inflate,
)
from repro.core.fastpath import _dispatch_entries
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import (
    TraceExecutor,
    WorkloadSpec,
    run_workload,
    run_workload_columnar,
)


# ----------------------------------------------------------------------
# compact wire format
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "event",
    [
        CallEvent(thread=3, callsite=7, caller=1, callee=2),
        CallEvent(thread=0, callsite=9, caller=4, callee=4, kind=CallKind.TAIL),
        CallEvent(thread=1, callsite=5, caller=0, callee=8, kind=CallKind.INDIRECT),
        CallEvent(thread=0, callsite=2, caller=0, callee=3, kind=CallKind.PLT),
        ReturnEvent(thread=2),
        SampleEvent(thread=1),
        ThreadStartEvent(thread=4, parent=0, entry=6),
        ThreadExitEvent(thread=4),
        LibraryLoadEvent(thread=0, library="libm.so"),
    ],
)
def test_compact_inflate_roundtrip(event):
    assert inflate(compact(event)) == event


def test_compact_rejects_unknown():
    with pytest.raises(TypeError):
        compact(object())
    with pytest.raises(TypeError):
        inflate((99, 0))


def test_executor_compact_stream_matches_dataclass_stream():
    program = generate_program(GeneratorConfig(seed=11, functions=30, edges=70))
    spec = WorkloadSpec(calls=2000, seed=4, recursion_affinity=0.3)
    compact_stream = list(TraceExecutor(program, spec).compact_events())
    dataclass_stream = list(TraceExecutor(program, spec).events())
    assert [inflate(r) for r in compact_stream] == dataclass_stream


# ----------------------------------------------------------------------
# the kernel's entry dict
# ----------------------------------------------------------------------
def _run_engine(calls=4000, **config):
    program = generate_program(GeneratorConfig(seed=9, functions=30, edges=80))
    spec = WorkloadSpec(calls=calls, seed=3, **config)
    engine = DacceEngine()
    run_workload_columnar(program, spec, engine)
    return engine


def test_table_holds_only_encoded_normal_forward_edges():
    engine = _run_engine()
    engine.reencode()
    entries = _dispatch_entries(
        engine.graph, engine._current, engine._tail_calling_functions
    )
    assert len(entries) > 0
    for (callsite, callee), (delta, edge, tail) in entries.items():
        assert edge.kind is CallKind.NORMAL and not edge.is_back
        assert (edge.callsite, edge.callee) == (callsite, callee)
        assert delta == engine._current.encoding(callsite, callee)
        assert tail == (callee in engine._tail_calling_functions)


def test_table_validity_is_dictionary_identity():
    engine = _run_engine()
    kernel = engine._ensure_columnar_kernel()
    compiles = engine.fastpath.compiles
    # Same dictionary object, same tail set: the kernel is reused.
    assert engine._ensure_columnar_kernel() is kernel
    assert engine.fastpath.compiles == compiles
    old_dictionary = engine._current
    assert engine.reencode()
    # Committed pass: new dictionary object, old kernel stale.
    rebuilt = engine._ensure_columnar_kernel()
    assert rebuilt is not kernel
    assert engine.fastpath.compiles == compiles + 1
    assert engine.fastpath_stats()["table_entries"] == len(
        _dispatch_entries(
            engine.graph, engine._current, engine._tail_calling_functions
        )
    )
    # Restoring the old object (what a rolled-back pass does) makes the
    # kernel stale again; so does a grown tail-caller set.
    engine._current = old_dictionary
    again = engine._ensure_columnar_kernel()
    assert again is not rebuilt
    engine._tail_calling_functions.add(engine.graph.root)
    assert engine._ensure_columnar_kernel() is not again


# ----------------------------------------------------------------------
# subclass guard
# ----------------------------------------------------------------------
def test_baseline_with_overridden_handlers_disables_fastpath():
    engine = GlobalIdEngine()
    assert not engine._fastpath_enabled
    program = generate_program(GeneratorConfig(seed=3, functions=12, edges=20))
    spec = WorkloadSpec(calls=500, seed=1)
    reference = GlobalIdEngine(root=program.main)
    run_workload(program, spec, reference)
    engine = GlobalIdEngine(root=program.main)
    run_workload_columnar(program, spec, engine)
    # Fell back to per-event dispatch: same end state...
    assert engine.stats == reference.stats
    # ...and the fast-path counters never engaged.
    assert engine.fastpath.to_dict() == reference.fastpath.to_dict()
    assert engine.fastpath.events == engine.fastpath.compiles == 0


def test_pcce_subclass_keeps_fastpath():
    # PcceEngine only overrides discovery/runtime-handler hooks, none of
    # which the fast lane bypasses.
    program = generate_program(GeneratorConfig(seed=3, functions=12, edges=20))
    assert PcceEngine(program)._fastpath_enabled


# ----------------------------------------------------------------------
# steady-state hit rate (the CI perf-smoke gate condition)
# ----------------------------------------------------------------------
def test_steady_state_hit_rate_above_90_percent():
    program = generate_program(
        GeneratorConfig(
            seed=5,
            functions=40,
            edges=100,
            indirect_fraction=0.0,
            tail_fraction=0.0,
            recursive_sites=0,
            library_functions=0,
        )
    )
    spec = WorkloadSpec(
        calls=6000, seed=2, sample_period=0, recursion_affinity=0.0
    )
    engine = DacceEngine()
    # Warm up: discover and encode every edge, then measure a second run.
    run_workload_columnar(program, spec, engine)
    engine.reencode()
    engine.fastpath.hits = engine.fastpath.misses = 0
    run_workload_columnar(program, spec, engine)
    assert engine.fastpath.hit_rate > 0.90, engine.fastpath_stats()


# ----------------------------------------------------------------------
# DecodeCache
# ----------------------------------------------------------------------
def test_decode_cache_lru_eviction_and_counters():
    cache = DecodeCache(capacity=2)
    a, b, c = (CallingContext(()) for _ in range(3))
    assert cache.get(("k1", True, True)) is None
    cache.put(("k1", True, True), a)
    cache.put(("k2", True, True), b)
    assert cache.get(("k1", True, True)) is a  # k1 now most-recent
    cache.put(("k3", True, True), c)  # evicts k2 (least-recent)
    assert cache.get(("k2", True, True)) is None
    assert cache.get(("k1", True, True)) is a
    assert cache.get(("k3", True, True)) is c
    assert cache.hits == 3 and cache.misses == 2
    assert cache.hit_rate == pytest.approx(0.6)
    assert len(cache) == 2
    cache.clear()
    assert len(cache) == 0


def test_decode_cache_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        DecodeCache(capacity=0)


def test_engine_decoder_shares_cache_across_samples():
    program = generate_program(GeneratorConfig(seed=9, functions=30, edges=80))
    spec = WorkloadSpec(calls=4000, seed=3, sample_period=50)
    engine = DacceEngine()
    run_workload_columnar(program, spec, engine)
    decoder = engine.decoder()
    uncached = [decoder._decode_uncached(s, True, True) for s in engine.samples]
    first = [decoder.decode(s) for s in engine.samples]
    again = [decoder.decode(s) for s in engine.samples]
    assert first == again == uncached
    stats = engine.stats_snapshot()["decode_cache"]
    assert stats["hits"] >= len(engine.samples)  # second pass all hits
    assert stats["entries"] <= stats["capacity"]


# ----------------------------------------------------------------------
# columnar dispatch (PR 9)
# ----------------------------------------------------------------------
def test_process_columns_empty_batch_is_noop():
    from repro.core.columnar import EventColumns

    engine = DacceEngine()
    engine.process_columns(EventColumns())
    assert engine.stats.calls == 0
    assert engine.fastpath.batches == 0


def test_process_columns_fallback_without_fastpath():
    from repro.core.columnar import EventColumns

    engine = GlobalIdEngine()
    assert not engine._fastpath_enabled
    events = [CallEvent(0, 1, engine.graph.root, 1), ReturnEvent(0)]
    engine.process_columns(EventColumns.from_compact([compact(e) for e in events]))
    # Fell back to per-event dispatch — processed, no fast-path counters.
    assert engine.stats.calls == 1 and engine.stats.returns == 1
    assert engine.fastpath.hits == engine.fastpath.misses == 0


def test_process_columns_releases_views():
    """The batch is appendable again after processing (views released)."""
    from repro.core.columnar import EventColumns

    engine = _run_engine()
    cols = EventColumns()
    cols.push_call(0, 1, engine.graph.root, 1)
    cols.push_return(0)
    engine.process_columns(cols)
    cols.clear()
    cols.push_return(0)  # would raise BufferError if views leaked
    assert len(cols) == 1


def test_process_columns_recompiles_after_reencode():
    from repro.core.columnar import EventColumns

    engine = _run_engine()
    compiles_before = engine.fastpath.compiles
    engine.reencode()
    cols = EventColumns.from_compact(
        [(EV_CALL, 0, 1, engine.graph.root, 1, 0)]
    )
    engine.process_columns(cols)
    assert engine.fastpath.compiles > compiles_before
