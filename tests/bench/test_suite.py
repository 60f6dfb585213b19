"""Benchmark-suite tests: Table 1 data integrity and derivations."""

import pytest

from repro.bench import CLOCK_HZ, PARSEC_2_1, SPEC_CPU2006, full_suite


def test_suite_has_all_41_benchmarks():
    suite = full_suite()
    assert len(suite) == 41
    assert len(SPEC_CPU2006) == 29
    assert len(PARSEC_2_1) == 12


def test_names_unique_and_ordered_like_table1():
    suite = full_suite()
    names = suite.names()
    assert len(set(names)) == 41
    assert names[0] == "400.perlbench"
    assert names[-1] == "streamcluster"


def test_paper_overflow_rows():
    suite = full_suite()
    overflowing = [
        b.name for b in suite if b.paper.pcce_maxid == "overflow"
    ]
    assert overflowing == ["400.perlbench", "403.gcc"]


def test_pcce_graphs_dominate_dacce_graphs():
    for benchmark in full_suite():
        paper = benchmark.paper
        assert paper.pcce_nodes >= paper.nodes
        assert paper.pcce_edges >= paper.edges


def test_parsec_benchmarks_are_threaded():
    for benchmark in PARSEC_2_1:
        assert benchmark.threads >= 2
    for benchmark in SPEC_CPU2006:
        assert benchmark.threads == 0


def test_known_characteristics_spot_checks():
    suite = full_suite()
    gobmk = suite.get("445.gobmk").paper
    assert gobmk.gts == 76
    assert gobmk.depth == pytest.approx(2.47)
    xalan = suite.get("483.xalancbmk").paper
    assert xalan.pcce_nodes == 12535
    assert xalan.ccstack_s == 596197
    lbm = suite.get("470.lbm").paper
    assert lbm.calls_s == 2964


def test_derived_recursion_quantities_sane():
    for benchmark in full_suite():
        assert 0.0 <= benchmark.recursion_affinity <= 0.9
        assert 1 <= benchmark.recursive_sites <= 40
        assert 0.0 < benchmark.recursion_weight <= 0.6
        assert 0.0 <= benchmark.ccstack_rate <= 1.0


def test_deep_recursion_benchmarks_are_persistent():
    suite = full_suite()
    assert suite.get("445.gobmk").persistent_recursion
    assert suite.get("483.xalancbmk").persistent_recursion
    assert not suite.get("433.milc").persistent_recursion
    assert not suite.get("470.lbm").persistent_recursion


def test_hot_cycle_edges_follow_pcce_excess():
    suite = full_suite()
    assert suite.get("400.perlbench").hot_cycle_edges > 0
    assert suite.get("483.xalancbmk").hot_cycle_edges > 0
    assert suite.get("470.lbm").hot_cycle_edges == 0


def test_baseline_cycles_reflect_call_rate():
    suite = full_suite()
    dense = suite.get("453.povray")  # 34M calls/s
    sparse = suite.get("470.lbm")    # 3k calls/s
    assert dense.baseline_cycles_per_call < 100
    assert sparse.baseline_cycles_per_call > 100_000
    assert dense.baseline_cycles_per_call == pytest.approx(
        CLOCK_HZ / dense.paper.calls_s
    )


def test_generator_config_scales():
    benchmark = full_suite().get("403.gcc")
    full = benchmark.generator_config(1.0)
    half = benchmark.generator_config(0.5)
    assert full.functions == benchmark.paper.nodes
    assert half.functions == benchmark.paper.nodes // 2
    assert half.static_only_functions < full.static_only_functions


def test_workload_spec_structure():
    benchmark = full_suite().get("x264")
    spec = benchmark.workload_spec(calls=10_000, seed=3)
    assert spec.calls == 10_000
    assert len(spec.threads) == 4
    assert spec.phases  # gts > 1 implies phase changes
    assert all(0 < p.at_call < 10_000 for p in spec.phases)


def test_x264_is_indirect_heavy():
    benchmark = full_suite().get("x264")
    assert benchmark.indirect_targets[1] >= 10
    assert benchmark.indirect_fraction > 0.1


def test_derived_seeds_do_not_depend_on_the_hash_seed():
    # Pinned values: a per-process salted hash(name) would move them
    # (and the generated program) from one interpreter run to the next.
    gcc = full_suite().get("403.gcc")
    assert gcc.name_seed == 3030750954
    assert gcc.generator_config(0.4).seed == 50954
    assert gcc.workload_spec(seed=1).seed == 955
