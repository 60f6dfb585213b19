"""Re-encoding convergence: no-effect passes and the trigger-3 backoff.

Recursion keeps the ccStack busy with back-edge traffic that no pass
can encode, so trigger 3 (``ccstack-traffic``) would fire on every
window.  A trigger-driven pass whose candidate dictionary equals the
current one must change nothing (no gTimeStamp bump, no new
dictionary, no kernel recompile, no listener), and repeated no-effect
passes must back off, so a recursion-only run commits a bounded number
of passes however long it runs.
"""

import json
import math

from hypothesis import given, settings, strategies as st

from repro.core.adaptive import (
    CCSTACK_BACKOFF_CAP,
    AdaptiveConfig,
    AdaptivePolicy,
    TriggerDecision,
    WindowStats,
)
from repro.core.columnar import EventColumns
from repro.core.engine import DacceConfig, DacceEngine
from repro.core.events import EV_CALL, EV_RETURN, EV_SAMPLE, inflate
from repro.ingest import FrameEmitter, MemorySink
from repro.obs import SpanRecorder, Telemetry


def recursion_records(cycle, iterations, modulus, sample_every=7):
    """A recursion-only compact stream.

    ``main`` (0) calls function 1 through call site 1; functions
    ``1..cycle`` call each other round a cycle (site ``10 + caller``),
    so the edge closing the cycle is a back edge.  Iteration ``j``
    recurses ``j % modulus`` calls deep.
    """
    records = []
    for j in range(iterations):
        depth = j % modulus
        records.append((EV_CALL, 0, 1, 0, 1, 0))
        function = 1
        for _ in range(depth):
            callee = function % cycle + 1
            records.append((EV_CALL, 0, 10 + function, function, callee, 0))
            function = callee
        if sample_every and j % sample_every == 0:
            records.append((EV_SAMPLE, 0))
        records.extend([(EV_RETURN, 0)] * (depth + 1))
    return records


def new_edge_records(count):
    """Calls from function 1 to a function the graph has not seen."""
    records = []
    for _ in range(count):
        records.append((EV_CALL, 0, 1, 0, 1, 0))
        records.append((EV_CALL, 0, 99, 1, 50, 0))
        records.extend([(EV_RETURN, 0)] * 2)
    return records


def run(engine, records):
    for record in records:
        engine.on_event(inflate(record))
    return engine


def converged_engine(**engine_args):
    """Mutual recursion past its only effective pass (check interval 64)."""
    config = DacceConfig(adaptive=AdaptiveConfig(check_interval=64))
    engine = run(
        DacceEngine(config=config, **engine_args),
        recursion_records(2, 400, 9),
    )
    assert engine.stats.reencodings == 1
    assert engine.stats.reencodes_skipped > 0
    return engine


def ccstack_decision():
    return TriggerDecision(
        reencode=True,
        reasons=["ccstack-traffic"],
        window=WindowStats(calls=64, ccstack_ops=64),
    )


class TestNoEffectPass:
    def test_trigger_driven_pass_changes_nothing(self):
        engine = converged_engine()
        engine.process_columns(
            EventColumns.from_compact(recursion_records(2, 20, 9))
        )
        timestamp = engine.timestamp
        dictionary = engine.current_dictionary
        compiles = engine.fastpath.compiles
        generation = engine.graph.generation
        stored = len(engine.dictionaries)
        log = list(engine.reencode_log)
        skipped = engine.stats.reencodes_skipped
        fired = []
        engine.reencode_listeners.append(fired.append)

        committed = engine.reencode(
            ("ccstack-traffic",), decision=ccstack_decision()
        )

        assert committed is False
        assert engine.timestamp == timestamp
        assert engine.current_dictionary is dictionary
        assert engine.graph.generation == generation
        assert len(engine.dictionaries) == stored
        assert engine.reencode_log == log
        assert engine.stats.reencodings == 1
        assert engine.stats.reencodes_skipped == skipped + 1
        assert fired == []
        # The kernel stays valid by identity: no recompile.
        engine.process_columns(
            EventColumns.from_compact(recursion_records(2, 20, 9))
        )
        assert engine.fastpath.compiles == compiles

    def test_manual_reencode_always_commits(self):
        engine = converged_engine()
        timestamp = engine.timestamp
        dictionary = engine.current_dictionary
        fired = []
        engine.reencode_listeners.append(fired.append)

        assert engine.reencode() is True

        assert engine.timestamp == timestamp + 1
        assert engine.current_dictionary is not dictionary
        assert engine.current_dictionary.same_encoding(dictionary)
        assert engine.stats.reencodings == 2
        assert [record.timestamp for record in fired] == [timestamp + 1]
        assert engine.policy.no_effect_streak == 0  # a commit resets

    def test_skips_are_visible_but_emit_no_pass_report(self):
        telemetry = Telemetry()
        spans = SpanRecorder("convergence-test")
        engine = converged_engine(telemetry=telemetry, spans=spans)
        text = telemetry.to_prometheus()
        metric = telemetry.registry.snapshot()["dacce_reencode_skipped_total"]
        series = {s["labels"]["reason"]: s["value"] for s in metric["series"]}
        assert series["no-effect"] >= 1 and series["backoff"] >= 1
        assert (
            series["no-effect"] + series["backoff"]
            == engine.stats.reencodes_skipped
        )
        assert 'dacce_reencode_skipped_total{reason="backoff"}' in text
        assert (
            'dacce_runtime_total{stat="reencodes_skipped"} %d'
            % engine.stats.reencodes_skipped
        ) in text
        assert len(telemetry.pass_reports) == engine.stats.reencodings
        passes = spans.spans(name="engine.reencode")
        marked = [r for r in passes if r.get("attrs", {}).get("skipped")]
        assert len(marked) == series["no-effect"]
        assert len(passes) - len(marked) == engine.stats.reencodings

    def test_emitter_ships_no_frame_for_a_skipped_pass(self):
        config = DacceConfig(adaptive=AdaptiveConfig(check_interval=64))
        engine = DacceEngine(config=config)
        sink = MemorySink()
        emitter = FrameEmitter(sink, run="r").attach(engine, every=16)
        run(engine, recursion_records(2, 400, 9))
        emitter.complete()
        frames = [json.loads(line) for line in sink.lines]
        passes = [f for f in frames if f["type"] == "reencode.pass"]
        assert engine.stats.reencodes_skipped > 0
        assert len(passes) == engine.stats.reencodings == 1
        stats = [f for f in frames if f["type"] == "stats.delta"][-1]
        assert (
            stats["payload"]["stats"]["reencodes_skipped"]
            == engine.stats.reencodes_skipped
        )


class TestBackoff:
    def policy(self, **kwargs):
        return AdaptivePolicy(AdaptiveConfig(ccstack_rate_threshold=0.2, **kwargs))

    @staticmethod
    def ccstack_window():
        return WindowStats(calls=100, ccstack_ops=50)

    def test_ccstack_only_trigger_backs_off_exponentially(self):
        policy = self.policy()
        for streak, windows in ((1, 1), (2, 3), (3, 7)):
            policy.pass_had_no_effect()
            assert policy.no_effect_streak == streak
            for _ in range(windows):
                decision = policy.evaluate(self.ccstack_window(), 0)
                assert decision.backed_off and not decision.reencode
                assert decision.reasons == []
            decision = policy.evaluate(self.ccstack_window(), 0)
            assert decision.reencode
            assert decision.reasons == ["ccstack-traffic"]

    def test_quiet_windows_count_towards_the_backoff(self):
        policy = self.policy()
        policy.pass_had_no_effect()
        policy.pass_had_no_effect()
        for _ in range(3):
            assert not policy.evaluate(WindowStats(calls=100), 0).backed_off
        assert policy.evaluate(self.ccstack_window(), 0).reencode

    def test_backoff_is_capped(self):
        policy = self.policy()
        for _ in range(12):
            policy.pass_had_no_effect()
        assert policy.backoff_windows == CCSTACK_BACKOFF_CAP == 1023

    def test_new_evidence_resets_the_backoff(self):
        for window, pending in (
            (self.ccstack_window(), 1),  # a new edge arrived
            (WindowStats(calls=100, unencoded_calls=50), 0),
        ):
            policy = self.policy()
            policy.pass_had_no_effect()
            policy.pass_had_no_effect()
            decision = policy.evaluate(window, pending)
            assert decision.reencode and not decision.backed_off
            assert policy.no_effect_streak == 0
            assert policy.backoff_windows == 0

    def test_reset_ends_the_backoff(self):
        policy = self.policy()
        policy.pass_had_no_effect()
        policy.reset_backoff()
        assert policy.evaluate(self.ccstack_window(), 0).reencode

    def test_pending_compression_resets_the_backoff(self):
        policy = self.policy(compression_min_pushes=4)
        policy.pass_had_no_effect()
        for _ in range(4):
            policy.observe_back_edge_push((10, 1), repetitive=True)
        assert policy.evaluate(self.ccstack_window(), 0).reencode
        assert policy.no_effect_streak == 0

    def test_engine_backoff_resets_when_a_new_edge_arrives(self):
        engine = converged_engine()
        assert engine.policy.no_effect_streak > 0
        evaluations = engine.policy.evaluations
        run(engine, new_edge_records(1))
        records = iter(recursion_records(2, 400, 9))
        while engine.policy.evaluations == evaluations:
            engine.on_event(inflate(next(records)))
        assert engine.stats.reencodings == 2
        assert engine.policy.no_effect_streak == 0
        assert engine.current_dictionary.encoding(99, 50) is not None


def _calls_per_iteration(modulus):
    return sum(1 + j for j in range(modulus)) / modulus


@given(
    cycle=st.integers(1, 5),
    modulus=st.integers(2, 40),
    interval=st.sampled_from([64, 128, 256]),
    longer=st.integers(2, 6),
)
@settings(max_examples=15, deadline=None)
def test_recursion_only_run_n_times_longer_commits_the_same_passes(
    cycle, modulus, interval, longer
):
    # Compression is decided by a running repetition fraction that can
    # approach its threshold arbitrarily slowly, so a late compression
    # pass is a real effect; it is switched off to isolate trigger 3.
    config = AdaptiveConfig(check_interval=interval, compression_min_pushes=10**9)
    iterations = int(40 * interval / _calls_per_iteration(modulus))

    def engine_for(factor):
        return run(
            DacceEngine(config=DacceConfig(adaptive=config)),
            recursion_records(cycle, iterations * factor, modulus),
        )

    short, long = engine_for(1), engine_for(longer)
    assert long.stats.reencodings == short.stats.reencodings
    assert len(long.dictionaries) == long.stats.reencodings + 1 <= 3
    # No-effect passes grow with the log of the run length, not with it.
    assert long.policy.no_effect_streak <= (
        short.policy.no_effect_streak + math.ceil(math.log2(longer)) + 1
    )
