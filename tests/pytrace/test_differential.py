"""Differential tests for the Python frontend's one call-hook path.

Full tracing, targeted tracing with a partial plan and targeted tracing
with every function in the plan run the same program; at every probe the
decoded sample must name the same function path as an interpreter stack
walk.  A golden test pins the exact column stream the hook pushes.
"""

import importlib.util
import textwrap

import pytest

from repro.core.ccstack import UNTRACKED_FUNCTION
from repro.pytrace import PythonDacceTracer, contexts_agree
from repro.pytrace.tracer import ROOT_FUNCTION
from repro.static.pyextract import FunctionIndex, extract_package
from repro.static.targeted import build_targeted

#: Probes sit inside recursion, a generator, an exception raised and
#: caught, a ``sorted(key=...)`` callback, and calls made through
#: ``relay``, an untraced frame (its code claims a frozen filename).
PROBED_SOURCE = '''
from repro.pytrace import walk_stack

tracer = None
pairs = []

_ns = {}
_relay = "def relay(f, x):\\n    return f(x)\\n"
exec(compile(_relay, "<frozen relay>", "exec"), _ns)
relay = _ns["relay"]


def probe():
    pairs.append((tracer.sample(), walk_stack(tracer)))


def sink(x):
    probe()
    return x


def fib(n):
    if n < 2:
        return sink(n)
    return fib(n - 1) + fib(n - 2)


def gen(n):
    for i in range(n):
        yield sink(i)


def thrower():
    sink(0)
    raise ValueError("boom")


def catcher():
    try:
        thrower()
    except ValueError:
        return sink(1)


def keyfn(x):
    return sink(-x)


def double(x):
    probe()
    return 2 * x


def through_relay():
    return relay(sink, 3) + relay(double, 4)


def main():
    fib(4)
    total = sum(gen(3))
    catcher()
    sorted([3, 1, 2], key=keyfn)
    through_relay()
    return total
'''

#: Every call here has a traced parent frame (no relay), so the golden
#: stream does not depend on how calls through untraced frames are keyed.
#: ``apply`` hides ``prepare`` from the static graph: ``shuffle`` and
#: ``churn`` stay out of the plan and re-enter it dynamically.
GOLDEN_SOURCE = '''
def sink_op(x):
    return x + 1


def prepare(x):
    return sink_op(x) + sink_op(x + 1)


def apply(f, x):
    return f(x)


def shuffle(i):
    return apply(prepare, i) if i % 2 else i


def churn(n):
    total = 0
    for i in range(n):
        total += shuffle(i)
    return total


def rec(n):
    return sink_op(n) if n == 0 else rec(n - 1)


def main():
    churn(4)
    value = prepare(1) + rec(2)
    churn(3)
    return value
'''


def _load(tmp_path, source):
    (tmp_path / "app.py").write_text(textwrap.dedent(source))
    graph = extract_package(str(tmp_path), index=FunctionIndex(first_id=1))
    spec = importlib.util.spec_from_file_location("app", tmp_path / "app.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return str(tmp_path), graph, module


def _make_tracer(mode, root, graph):
    if mode == "full":
        return PythonDacceTracer()
    if mode == "targeted-partial":
        sinks = ["sink"]
    else:
        sinks = [fn.id for fn in graph.functions()]
    plan = build_targeted(graph, sinks, root=ROOT_FUNCTION)
    return PythonDacceTracer(targeted=plan, source_root=root)


def _record_stream(tracer):
    """Capture every ``(op, callsite, caller, callee)`` the hook pushes."""
    stream = []
    process = tracer.engine.process_columns

    def recording(cols):
        for i in range(len(cols)):
            stream.append(
                (cols.op[i], cols.callsite[i], cols.caller[i], cols.callee[i])
            )
        return process(cols)

    tracer.engine.process_columns = recording
    return stream


@pytest.mark.parametrize(
    "mode", ["full", "targeted-partial", "targeted-all"]
)
def test_decode_matches_walk_at_every_probe(tmp_path, mode):
    root, graph, module = _load(tmp_path, PROBED_SOURCE)
    tracer = _make_tracer(mode, root, graph)
    module.tracer = tracer
    tracer.run(module.main)
    # fib(4) leaves x5, gen x3, thrower + catcher, keyfn x3, relay x2.
    assert len(module.pairs) == 15
    crossed = []
    for sample, walked in module.pairs:
        decoded = tracer.decode(sample)
        assert contexts_agree(decoded, walked), (
            tracer.format_context(decoded),
            walked.functions(),
        )
        crossed.append(UNTRACKED_FUNCTION in decoded.functions())
    # The partial plan leaves out probe, double and through_relay, so
    # every probe sits in an untracked region (via relay, two deep).
    assert crossed == [mode == "targeted-partial"] * len(crossed)
    stats = tracer.engine.stats
    assert stats.calls == stats.returns > 0


def _golden_main():
    total = _golden_twice(1) + _golden_rec(3)
    total += sum(_golden_gen(2))
    total += sum(sorted([3, 1, 2], key=_golden_leaf))
    try:
        _golden_raise()
    except ValueError:
        total += 1
    return total


def _golden_leaf(x):
    return x + 1


def _golden_twice(x):
    return _golden_leaf(x) + _golden_leaf(x + 1)


def _golden_rec(n):
    return 0 if n == 0 else _golden_rec(n - 1) + _golden_leaf(n)


def _golden_gen(n):
    for i in range(n):
        yield _golden_leaf(i)


def _golden_raise():
    _golden_leaf(0)
    raise ValueError("boom")


FULL_GOLDEN = [
    (0, 1, 0, 1), (0, 2, 1, 2), (0, 3, 2, 3), (1, 0, 0, 0),
    (0, 4, 2, 3), (1, 0, 0, 0), (1, 0, 0, 0), (0, 5, 1, 4),
    (0, 6, 4, 4), (0, 6, 4, 4), (0, 6, 4, 4), (1, 0, 0, 0),
    (0, 7, 4, 3), (1, 0, 0, 0), (1, 0, 0, 0), (0, 7, 4, 3),
    (1, 0, 0, 0), (1, 0, 0, 0), (0, 7, 4, 3), (1, 0, 0, 0),
    (1, 0, 0, 0), (0, 8, 1, 5), (0, 9, 5, 3), (1, 0, 0, 0),
    (1, 0, 0, 0), (0, 8, 1, 5), (0, 9, 5, 3), (1, 0, 0, 0),
    (1, 0, 0, 0), (0, 8, 1, 5), (1, 0, 0, 0), (0, 10, 1, 3),
    (1, 0, 0, 0), (0, 10, 1, 3), (1, 0, 0, 0), (0, 10, 1, 3),
    (1, 0, 0, 0), (0, 11, 1, 6), (0, 12, 6, 3), (1, 0, 0, 0),
    (1, 0, 0, 0), (1, 0, 0, 0),
]

TARGETED_GOLDEN = [
    (0, 12, 0, 4), (0, 13, 4, -2), (0, 14, -2, 5), (0, 0, 5, 8),
    (1, 0, 0, 0), (0, 0, 5, 8), (1, 0, 0, 0), (1, 0, 0, 0),
    (0, 14, -2, 5), (0, 0, 5, 8), (1, 0, 0, 0), (0, 0, 5, 8),
    (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (0, 9, 4, 5),
    (0, 0, 5, 8), (1, 0, 0, 0), (0, 0, 5, 8), (1, 0, 0, 0),
    (1, 0, 0, 0), (0, 10, 4, 6), (0, 7, 6, 6), (0, 7, 6, 6),
    (0, 6, 6, 8), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0),
    (1, 0, 0, 0), (0, 15, 4, -2), (0, 14, -2, 5), (0, 0, 5, 8),
    (1, 0, 0, 0), (0, 0, 5, 8), (1, 0, 0, 0), (1, 0, 0, 0),
    (1, 0, 0, 0), (1, 0, 0, 0),
]


def test_full_mode_column_stream_is_golden():
    tracer = PythonDacceTracer()
    stream = _record_stream(tracer)
    tracer.run(_golden_main)
    assert stream == FULL_GOLDEN


def test_targeted_mode_column_stream_is_golden(tmp_path):
    root, graph, module = _load(tmp_path, GOLDEN_SOURCE)
    plan = build_targeted(graph, ["sink_op"], root=ROOT_FUNCTION)
    tracer = PythonDacceTracer(targeted=plan, source_root=root)
    stream = _record_stream(tracer)
    tracer.run(module.main)
    assert stream == TARGETED_GOLDEN
