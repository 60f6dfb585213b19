"""CCT aggregation: tree structure, epoch merging, partial samples."""

import pytest

from repro.core.context import CallingContext, ContextStep
from repro.core.engine import DacceEngine
from repro.core.errors import DecodingError
from repro.core.faults import DecodeFault, PartialDecode
from repro.core.samplelog import SampleLog
from repro.core.serialize import export_decoding_state, load_decoder
from repro.obs import MetricsRegistry
from repro.prof import (
    CCT,
    CCTAggregator,
    PARTIAL_FUNCTION,
    PARTIAL_NAME,
    ROOT_NAME,
    default_names,
)
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import ThreadSpec, WorkloadSpec, run_workload_columnar


def context(*functions):
    return CallingContext(
        steps=tuple(ContextStep(function=f, count=0) for f in functions)
    )


# ----------------------------------------------------------------------
# the bare tree
# ----------------------------------------------------------------------
def test_insert_builds_shared_prefix():
    cct = CCT()
    cct.insert((0, 1, 2), 5.0)
    cct.insert((0, 1, 3), 2.0)
    cct.insert((0, 1, 2), 1.0)
    assert cct.num_nodes() == 4  # 0, 0;1, 0;1;2, 0;1;3
    assert cct.total_weight() == 8.0
    assert cct.total_samples() == 3
    leaf = cct.root.children[0].children[1].children[2]
    assert leaf.self_weight == 6.0
    assert leaf.self_samples == 2


def test_interior_node_can_hold_self_weight():
    cct = CCT()
    cct.insert((0, 1), 1.0)
    cct.insert((0, 1, 2), 1.0)
    interior = cct.root.children[0].children[1]
    assert interior.self_samples == 1
    assert interior.total_weight() == 2.0


def test_partial_inserts_under_partial_pseudo_node():
    cct = CCT()
    cct.insert((0, 1), 1.0)
    cct.insert_partial((7, 8), 3.0)
    assert cct.partial_weight() == 3.0
    assert cct.total_weight() == 4.0  # partials are NOT dropped
    assert cct.partial_node is cct.root.children[PARTIAL_FUNCTION]
    assert cct.partial_node.children[7].children[8].self_weight == 3.0


def test_repeated_path_reaches_the_same_node_in_any_form():
    cct = CCT()
    first = cct.insert([0, 1, 2], 1.0)
    assert cct.insert((0, 1, 2), 2.0) is first
    assert cct.insert(iter((0, 1, 2)), 4.0) is first
    partial = cct.insert_partial([5], 1.0)
    assert cct.insert((PARTIAL_FUNCTION, 5), 1.0) is partial
    assert cct.insert_partial((5,), 1.0) is partial
    assert cct.num_nodes() == 5  # 0, 0;1, 0;1;2, <partial>, <partial>;5
    assert (first.self_weight, first.self_samples) == (7.0, 3)
    assert (partial.self_weight, partial.self_samples) == (3.0, 3)

def test_path_cache_is_bounded(monkeypatch):
    import repro.prof.cct as cct_module

    monkeypatch.setattr(cct_module, "PATH_CACHE_CAPACITY", 2)
    cct = CCT()
    first = cct.insert((0, 1), 1.0)
    for leaf in range(2, 6):
        cct.insert((0, leaf), 1.0)
        assert len(cct._nodes) <= 2
    assert cct.insert((0, 1), 1.0) is first
    assert (first.self_weight, first.self_samples) == (2.0, 2)
    assert cct.num_nodes() == 6 and cct.total_samples() == 6

def test_max_depth_and_walk():
    cct = CCT()
    cct.insert((0,), 1.0)
    cct.insert((0, 1, 2), 1.0)
    assert cct.max_depth() == 3
    paths = {path for path, _ in cct.walk()}
    assert paths == {(0,), (0, 1), (0, 1, 2)}


def test_leaf_weights_only_lists_sampled_nodes():
    cct = CCT()
    cct.insert((0, 1, 2), 4.0)
    assert cct.leaf_weights() == {(0, 1, 2): 4.0}


def test_to_dict_orders_children_by_total_weight():
    cct = CCT()
    cct.insert((0, 1), 1.0)
    cct.insert((0, 2), 9.0)
    doc = cct.to_dict()
    assert doc["name"] == ROOT_NAME
    child = doc["children"][0]["children"]
    assert [node["function"] for node in child] == [2, 1]


def test_default_names_sentinels():
    assert default_names(PARTIAL_FUNCTION) == PARTIAL_NAME
    assert default_names(12) == "fn12"


# ----------------------------------------------------------------------
# the aggregator
# ----------------------------------------------------------------------
def test_add_decoded_complete_and_partial_accounting():
    aggregator = CCTAggregator()
    aggregator.add_decoded(context(0, 1), 2.0, timestamp=1)
    aggregator.add_decoded(
        PartialDecode(
            context=context(5),
            complete=False,
            fault=DecodeFault(reason="missing-dictionary", message="x"),
        ),
        3.0,
        timestamp=2,
    )
    stats = aggregator.stats()
    assert stats["samples"] == 2
    assert stats["samples_partial"] == 1
    assert stats["weight"] == 5.0
    assert stats["weight_partial"] == 3.0
    assert stats["epochs"] == 2
    # The complete PartialDecode wrapper counts as complete.
    aggregator.add_decoded(
        PartialDecode(context=context(0, 1), complete=True, fault=None), 1.0
    )
    assert aggregator.stats()["samples_partial"] == 1


def test_add_path_equals_add_decoded():
    by_path = CCTAggregator()
    by_context = CCTAggregator()
    samples = [((0, 1), 2.0, 1, False), ((5,), 3.0, 2, True),
               ((0, 1), 0.5, 2, False), ((0, 1, 1), 1.0, None, False)]
    for path, weight, gts, partial in samples:
        by_path.add_path(list(path), weight, gts, partial=partial)
        result = context(*path)
        if partial:
            result = PartialDecode(
                context=result, complete=False,
                fault=DecodeFault(reason="missing-dictionary", message="x"),
            )
        by_context.add_decoded(result, weight, timestamp=gts)
    assert by_path.leaf_weights() == {
        (0, 1): 2.5, (PARTIAL_FUNCTION, 5): 3.0, (0, 1, 1): 1.0,
    }
    assert by_path.to_dict() == by_context.to_dict()
    assert by_path.stats() == by_context.stats()
    assert by_path.epochs_seen == by_context.epochs_seen

def test_add_sample_without_decoder_raises():
    aggregator = CCTAggregator()
    with pytest.raises(DecodingError):
        aggregator.add_sample(object())


def test_total_weight_equals_recorded_weight_with_partials():
    aggregator = CCTAggregator()
    for index in range(10):
        aggregator.add_decoded(context(0, index % 3), 1.5)
    aggregator.add_decoded(
        PartialDecode(context=context(9), complete=False, fault=None), 1.5
    )
    assert aggregator.cct.total_weight() == pytest.approx(11 * 1.5)
    assert aggregator.cct.partial_weight() == pytest.approx(1.5)


# ----------------------------------------------------------------------
# end-to-end: recorded workload, live-engine and batch paths
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A workload spanning multiple encoding epochs, recorded via the
    engine's sampling hook."""
    program = generate_program(
        GeneratorConfig(seed=11, recursive_sites=3, indirect_fraction=0.1)
    )
    spec = WorkloadSpec(
        calls=25_000,
        seed=5,
        sample_period=0,
        recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=2, spawn_at_call=500)],
    )
    engine = DacceEngine(root=program.main)
    log = SampleLog()
    engine.install_sample_hook(32, lambda sample, weight: log.append(sample))
    run_workload_columnar(program, spec, engine)
    assert engine.stats.reencodings >= 1, "need >= 2 epochs for merge tests"
    state_path = str(tmp_path_factory.mktemp("prof") / "run.state.json")
    export_decoding_state(engine, state_path)
    return engine, state_path, log


def test_live_engine_aggregation(recorded):
    engine, _, log = recorded
    aggregator = CCTAggregator.from_engine(engine)
    for sample in log.samples():
        aggregator.add_sample(sample)
    stats = aggregator.stats()
    assert stats["samples"] == len(log)
    assert stats["samples_partial"] == 0
    assert stats["weight"] == float(len(log))
    assert stats["epochs"] >= 2


def test_aggregate_log_matches_live_aggregation(recorded):
    engine, state_path, log = recorded
    live = CCTAggregator.from_engine(engine)
    for sample in log.samples():
        live.add_sample(sample)
    decode_stats = {}
    batch = CCTAggregator.aggregate_log(
        state_path, log.samples(), jobs=4, stats=decode_stats
    )
    assert batch.leaf_weights() == live.leaf_weights()
    assert batch.stats()["samples"] == live.stats()["samples"]
    assert batch.decode_batches == 1
    assert decode_stats["jobs"] == 4


def test_epoch_merge_equals_per_epoch_hand_aggregation(recorded):
    """The differential acceptance test: aggregating a log that spans
    several gTimeStamps in one pass must equal decoding each epoch's
    samples separately (each against its own dictionary) and summing
    the per-path weights by hand."""
    _, state_path, log = recorded
    samples = log.samples()
    epochs = sorted({sample.timestamp for sample in samples})
    assert len(epochs) >= 2

    aggregator = CCTAggregator.aggregate_log(state_path, samples, jobs=2)

    by_hand = {}
    decoder = load_decoder(state_path)
    for epoch in epochs:
        for sample in samples:
            if sample.timestamp != epoch:
                continue
            path = decoder.decode(sample).functions()
            by_hand[path] = by_hand.get(path, 0.0) + 1.0
    assert aggregator.leaf_weights() == by_hand

    # Merge evidence: at least one path was observed in >= 2 epochs yet
    # occupies a single CCT node.
    paths_by_epoch = {}
    for sample in samples:
        path = decoder.decode(sample).functions()
        paths_by_epoch.setdefault(path, set()).add(sample.timestamp)
    merged = [p for p, stamps in paths_by_epoch.items() if len(stamps) >= 2]
    assert merged, "workload produced no cross-epoch context"
    stats = aggregator.stats()
    assert stats["epochs"] == len(epochs)


def test_aggregate_log_with_weights(recorded):
    _, state_path, log = recorded
    samples = log.samples()
    weights = [float(index % 5) for index in range(len(samples))]
    aggregator = CCTAggregator.aggregate_log(
        state_path, samples, weights=weights
    )
    assert aggregator.stats()["weight"] == pytest.approx(sum(weights))


def test_aggregate_log_files_damage_under_partial(recorded):
    _, state_path, log = recorded
    samples = list(log.samples())
    bad = samples[0].__class__(
        timestamp=999_999, context_id=1, function=samples[0].function, thread=0
    )
    aggregator = CCTAggregator.aggregate_log(state_path, samples + [bad])
    stats = aggregator.stats()
    assert stats["samples"] == len(samples) + 1
    assert stats["samples_partial"] == 1
    assert aggregator.cct.partial_weight() == 1.0
    # No weight went missing.
    assert aggregator.cct.total_weight() == float(len(samples) + 1)


# ----------------------------------------------------------------------
# metrics binding
# ----------------------------------------------------------------------
def test_bind_metrics_exports_prof_family():
    registry = MetricsRegistry(enabled=True, namespace="dacce")
    aggregator = CCTAggregator()
    aggregator.bind_metrics(registry)
    aggregator.add_decoded(context(0, 1), 2.0, timestamp=1)
    aggregator.add_decoded(
        PartialDecode(context=context(3), complete=False, fault=None),
        1.0,
        timestamp=2,
    )
    from repro.obs import to_prometheus_text

    registry.collect()
    text = to_prometheus_text(registry.snapshot())
    assert 'dacce_prof_samples_total{result="complete"} 1' in text
    assert 'dacce_prof_samples_total{result="partial"} 1' in text
    assert 'dacce_prof_weight_total{result="complete"} 2' in text
    assert 'dacce_prof_cct{property="epochs"} 2' in text
    assert 'dacce_prof_cct{property="nodes"}' in text
