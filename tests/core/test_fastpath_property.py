"""Differential property tests: the fast lane changes speed, not behaviour.

The contract of ``DacceEngine.process_columns`` — its code-generated
dispatch kernel and the general path it takes from inside its loop —
is *exact* equivalence with one-event-at-a-time dispatch:
byte-identical decoding state, identical collected samples, identical
statistics/metrics/cost accounting — across re-encoding (mid-batch and
mid-stream), warm-start seeding, and fault-policy recovery.
Hypothesis drives random programs, workloads, batch sizes and
corruptions through both paths and compares everything observable.

The same discipline is applied to the decode side:
``decode_log_parallel`` must reproduce sequential ``decode_log`` output
exactly, including best-effort ``PartialDecode`` fault ordering.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

import random

from repro.core.columnar import EventColumns
from repro.core.engine import DacceConfig, DacceEngine
from repro.core.events import EV_CALL, EV_RETURN, inflate
from repro.core.faults import FaultPolicy
from repro.core.serialize import decoding_state_to_dict
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import ThreadSpec, TraceExecutor, WorkloadSpec
from repro.static.synthetic import extract_program
from repro.static.warmstart import build_warmstart


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def _stream(program_seed, workload_seed, calls, threads, affinity):
    program = generate_program(
        GeneratorConfig(
            seed=program_seed,
            functions=30,
            edges=80,
            indirect_fraction=0.08,
            tail_fraction=0.05,
            recursive_sites=2,
        )
    )
    spec = WorkloadSpec(
        calls=calls,
        seed=workload_seed,
        sample_period=53,
        recursion_affinity=affinity,
        threads=[
            ThreadSpec(thread=i + 1, entry=3 + i, spawn_at_call=40 * (i + 1))
            for i in range(threads)
        ],
    )
    return program, list(TraceExecutor(program, spec).compact_events())


def _drive_per_event(engine, records, reencode_at=None):
    for index, record in enumerate(records):
        if reencode_at is not None and index == reencode_at:
            engine.reencode()
        engine.on_event(inflate(record))


def _drive_columnar(engine, records, batch_size, reencode_at=None):
    """Batches of ``batch_size`` through ``process_columns``; with
    ``reencode_at`` a manual pass runs between two batches there."""
    cut = len(records) if reencode_at is None else reencode_at
    for index, part in enumerate((records[:cut], records[cut:])):
        if index == 1 and reencode_at is not None:
            engine.reencode()
        for start in range(0, len(part), batch_size):
            engine.process_columns(
                EventColumns.from_compact(part[start : start + batch_size])
            )


def _observable(engine):
    """Everything the fast lane must leave bit-identical."""
    snapshot = engine.stats_snapshot()
    # The specialisation counters themselves are the *only* permitted
    # difference between the two paths.
    snapshot.pop("fastpath")
    return {
        "state": decoding_state_to_dict(engine),
        "stats": engine.stats,
        "samples": engine.samples,
        "cost": dataclasses.asdict(engine.cost.report),
        "snapshot": snapshot,
        "ccstack": engine.ccstack_stats(),
        "faults": [record.to_dict() for record in engine.faults.records()],
    }


def _assert_equivalent(per_event, columnar):
    observed_a = _observable(per_event)
    observed_b = _observable(columnar)
    for key in observed_a:
        assert observed_a[key] == observed_b[key], "diverged in %r" % key


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@given(
    program_seed=st.integers(0, 50),
    workload_seed=st.integers(0, 50),
    calls=st.integers(200, 1500),
    threads=st.integers(0, 2),
    affinity=st.sampled_from([0.0, 0.3, 0.6]),
    batch_size=st.sampled_from([1, 7, 32, 64, 4096]),
    reencode_frac=st.one_of(st.none(), st.floats(0.1, 0.9)),
)
@settings(max_examples=25, deadline=None)
def test_process_columns_equals_per_event(
    program_seed, workload_seed, calls, threads, affinity, batch_size,
    reencode_frac,
):
    _, records = _stream(program_seed, workload_seed, calls, threads, affinity)
    reencode_at = (
        None if reencode_frac is None else int(len(records) * reencode_frac)
    )
    per_event = DacceEngine()
    _drive_per_event(per_event, records, reencode_at)
    columnar = DacceEngine()
    _drive_columnar(columnar, records, batch_size, reencode_at)
    _assert_equivalent(per_event, columnar)
    # The generated dispatch kernel actually ran (not a silent fallback).
    assert columnar.fastpath.compiles >= 1
    assert columnar.fastpath.batches >= 1


@given(
    program_seed=st.integers(0, 30),
    workload_seed=st.integers(0, 30),
    calls=st.integers(200, 800),
    batch_size=st.sampled_from([1, 32, 4096]),
)
@settings(max_examples=15, deadline=None)
def test_process_columns_equals_per_event_warm_start(
    program_seed, workload_seed, calls, batch_size
):
    program, records = _stream(program_seed, workload_seed, calls, 0, 0.3)
    plan = build_warmstart(extract_program(program))

    def fresh():
        return DacceEngine(warm_start=build_warmstart(extract_program(program)))

    assert plan.seeded_edges > 0
    per_event = fresh()
    _drive_per_event(per_event, records, reencode_at=len(records) // 2)
    # NB: each engine needs its own freshly built plan — a WarmStartPlan
    # installs CallEdge objects by reference, so sharing one between two
    # engines would share (and double-consume) edge.invocations.
    columnar = fresh()
    _drive_columnar(
        columnar, records, batch_size, reencode_at=len(records) // 2
    )
    assert columnar.stats.warmstart_handler_hits_avoided > 0
    _assert_equivalent(per_event, columnar)


def _corrupt(records, seed, rate=0.02):
    """Inject malformed records (wrong caller, bogus thread, spurious
    returns) that the recover policy must quarantine identically."""
    rng = random.Random(seed)
    corrupted = []
    for record in records:
        corrupted.append(record)
        if rng.random() >= rate:
            continue
        choice = rng.randrange(3)
        if choice == 0 and record[0] == EV_CALL:
            # Caller mismatch: resynchronised against the shadow stack.
            corrupted.append(
                (EV_CALL, record[1], record[2], record[3] + 977, record[4], 0)
            )
        elif choice == 1:
            corrupted.append((EV_CALL, 555, 1, 0, 1, 0))  # unknown thread
        else:
            corrupted.append((EV_RETURN, record[1]))  # spurious return
    return corrupted


@given(
    program_seed=st.integers(0, 30),
    workload_seed=st.integers(0, 30),
    corruption_seed=st.integers(0, 100),
    calls=st.integers(200, 800),
    batch_size=st.sampled_from([1, 32, 4096]),
)
@settings(max_examples=15, deadline=None)
def test_process_columns_equals_per_event_under_fault_recovery(
    program_seed, workload_seed, corruption_seed, calls, batch_size
):
    _, records = _stream(program_seed, workload_seed, calls, 1, 0.3)
    records = _corrupt(records, corruption_seed)
    config = DacceConfig(fault_policy=FaultPolicy.RECOVER)
    per_event = DacceEngine(config=config)
    _drive_per_event(per_event, records)
    columnar = DacceEngine(
        config=DacceConfig(fault_policy=FaultPolicy.RECOVER)
    )
    _drive_columnar(columnar, records, batch_size)
    _assert_equivalent(per_event, columnar)
