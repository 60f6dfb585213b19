"""Code-generated dispatch kernel for the steady state.

The paper's central trick is that a call over an already-encoded edge
costs almost nothing — the hottest in-edge gets encoding 0, i.e. *no
instrumentation at all* (Sections 3-4) — and every other call goes to
one runtime handler.  The reproduction mirrors that at the interpreter
level: ``DacceEngine.process_columns`` runs struct-of-arrays batches
(:mod:`repro.core.columnar`) through a dispatch function ``exec``-ed
per encoding epoch, whose inner loop handles a run of encoded NORMAL
calls and their returns with one dict probe and one integer add each,
and hands every other event to the engine's general path
(``DacceEngine.on_event``) from inside the same loop.

The kernel's entry dict is a pure *specialisation cache*: every entry
restates what the general path would compute for that edge under the
current ``gTimeStamp``.  Anything it cannot prove cheap (an unencoded or
back edge, an indirect/tail/PLT call, a sample, a thread event, a
fault-policy recovery) takes the general path, so behaviour is
identical and only speed changes.

A kernel is valid exactly while the engine's current dictionary is the
*object* it was compiled from, the tail-caller set has not grown and
the sampling hook is the one it was entered with.  Re-encoding replaces
the dictionary object (and a rolled-back pass restores the previous
object, for which the previous kernel is still exact), so transactional
re-encoding and warm-start seeding need no extra hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, Dict, Tuple, cast

from .events import CallKind, CallSiteId, FunctionId

if TYPE_CHECKING:
    from .callgraph import CallEdge, CallGraph
    from .dictionary import EncodingDictionary

#: ``(callsite, callee) -> (encoding delta, edge, callee tail-calls?)``.
#:
#: Keyed on ``(callsite, callee)`` rather than the call site alone
#: because a call site is not guaranteed monomorphic (the Python tracer
#: maps dynamic dispatch onto NORMAL calls), and the encoding is a
#: per-target property.
FastPathEntry = Tuple[int, "CallEdge", bool]
FastPathKey = Tuple[CallSiteId, FunctionId]


@dataclass
class FastPathStats:
    """Specialisation counters; ``hit_rate`` feeds the CI perf gate."""

    hits: int = 0
    misses: int = 0
    batches: int = 0
    compiles: int = 0

    @property
    def events(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if not total:
            return 0.0
        return self.hits / total

    def to_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "batches": self.batches,
            "compiles": self.compiles,
            "hit_rate": self.hit_rate,
        }


def _dispatch_entries(
    graph: "CallGraph",
    dictionary: "EncodingDictionary",
    tail_calling_functions: AbstractSet[FunctionId],
) -> Dict[FastPathKey, FastPathEntry]:
    """The kernel's entry dict for one dictionary snapshot.

    Maps every encoded, non-back NORMAL edge to ``(delta, edge,
    callee_tail_calls)``:

    * ``delta`` — the edge's encoding (``id += delta``; 0 for the
      hottest in-edge, matching the paper's zero-instrumentation case),
    * ``edge`` — the live :class:`~repro.core.callgraph.CallEdge`, so
      the kernel can bump ``invocations`` (the adaptive policy's
      frequency signal) without a graph lookup,
    * ``callee_tail_calls`` — whether the callee is a known tail-caller,
      i.e. the caller-side TcStack save of Figure 7 must be charged.

    Seeded edges that have never been invoked are included as well; the
    kernel credits ``warmstart_handler_hits_avoided`` on their first hit
    exactly as the general path would.  O(edges) — the same order as one
    re-encoding pass.
    """
    entries: Dict[FastPathKey, FastPathEntry] = {}
    for edge in graph.edges():
        if edge.kind is not CallKind.NORMAL or edge.is_back:
            continue
        encoding = dictionary.encoding(edge.callsite, edge.callee)
        if encoding is None:
            continue
        entries[(edge.callsite, edge.callee)] = (
            encoding,
            edge,
            edge.callee in tail_calling_functions,
        )
    return entries


# ----------------------------------------------------------------------
# code-generated columnar dispatch
# ----------------------------------------------------------------------
# Each kernel is ``exec``-ed with its entry dict bound as a closure
# constant and the current engine shape (warm-start seeding present?
# sampling hook installed?  adaptive check interval) compiled directly
# into the source — branches for absent features do not exist in the
# generated bytecode.  The per-thread id register, the logical
# top-of-stack function and the sampling countdown live in interpreter
# locals, so the steady-state inner loop is one dict probe plus one
# integer add over raw integer columns.
#
# Frames for hot calls are *deferred*: the kernel pushes lightweight
# scratch tuples and only materialises real ``_Frame`` objects before
# anything else can observe the thread (a thread switch, a call into
# ``general``, the end of the batch).  This is sound because nothing
# observes ``state.frames`` between hot events, the ccStack never
# mutates on the hit path (so one ``saved_state()`` per
# thread-activation is exact for every deferred frame), and a
# call/return pair wholly inside one run of hits never needs its frame
# at all.
#
# General-path protocol: on an event it cannot fast-path (or a sample
# due, or an adaptive window filled) the kernel writes its scratch
# frames and id register back, syncs the sampling countdown and calls
# ``general(why, i, calls, returns, id_updates, tcstack)`` with its
# folded counters.  ``general`` folds them into the engine, does the
# work ``why`` names, and returns the adaptive window's call count — or
# -1 when the encoding epoch changed, in which case the kernel returns
# ``(i + 1, hits)`` so the engine can compile the next epoch's kernel
# and resume there.  A kernel that reaches the end of its batch calls
# ``general(KERNEL_FLUSH, ...)`` once and returns ``(-1, hits)``.

#: Why a generated kernel calls ``general`` (the template below spells
#: these as literals).
KERNEL_FLUSH = 0  #: end of batch: fold the counters, nothing else
KERNEL_MISS = 1  #: the event at ``i`` needs the general path
KERNEL_SAMPLE = 2  #: sampling countdown hit zero after the call at ``i``
KERNEL_TRIGGER = 3  #: adaptive window filled after the return at ``i``

#: ``kernel(views, start, threads, prof, window_calls, general)`` →
#: ``(resume index or -1 when the batch is done, hits)``.
ColumnarKernel = Callable[
    [Tuple[Any, ...], int, Dict[int, Any], Any, int, Callable[..., int]],
    Tuple[int, int],
]

_WRITEBACK_BLOCK = """\
{i}if scratch:
{i}    for sf in scratch:
{i}        frames_append(_frame(sf[0], sf[1], sf[2], cc_state, sf[3]))
{i}    del scratch[:]
{i}state.id_value = cur_id"""

_WARM_BLOCK = """\
                    if not edge.invocations and edge.seeded:
                        _stats.warmstart_handler_hits_avoided += 1"""

_HIT_CALL_END = """\
                    continue"""

_PROF_HIT_CALL_END = """\
                    pcount -= 1
                    if pcount > 0:
                        continue
                    why = 2"""

_KERNEL_TEMPLATE = """\
def {name}(views, start, threads_map, prof, wcalls, general):
    ops, tcol, cscol, crcol, cecol, kcol = views
    if start:
        ops = ops[start:]
        tcol = tcol[start:]
        cscol = cscol[start:]
        crcol = crcol[start:]
        cecol = cecol[start:]
        kcol = kcol[start:]
    threads_get = threads_map.get
    entries_get = _entries_get
    scratch = []
    scratch_append = scratch.append
    scratch_pop = scratch.pop
    cur_t = -1
    state = None
    frames = None
    frames_append = None
    cur_id = 0
    top_fn = -1
    cc_state = None
    pend_calls = 0
    pend_rets = 0
    pend_id = 0
    pend_tc = 0
    hits = 0
    pcount = {pcount}
    why = 1
    i = start - 1
    for op, et, cs, cr, ce, ek in zip(ops, tcol, cscol, crcol, cecol, kcol):
        i += 1
        if et != cur_t:
            ns = threads_get(et)
            if ns is None:
                op = -1  # unknown thread: straight to the general path
            else:
                if state is not None:
{writeback_switch}
                cur_t = et
                state = ns
                frames = ns.frames
                frames_append = frames.append
                cur_id = ns.id_value
                top_fn = frames[-1].function
                cc_state = ns.ccstack.saved_state()
        if op == 0:
            if ek == 0:
                entry = entries_get((cs, ce))
                if entry is not None and top_fn == cr:
                    edge = entry[1]
{warm_block}
                    edge.invocations += 1
                    delta = entry[0]
                    if delta:
                        scratch_append((ce, cs, cur_id, _act_id))
                        cur_id += delta
                        pend_id += 1
                    else:
                        scratch_append((ce, cs, cur_id, _act_none))
                    if entry[2]:
                        pend_tc += 1
                    top_fn = ce
                    pend_calls += 1
                    hits += 1
{hit_call_end}
        elif op == 1:
            if scratch:
                sf = scratch_pop()
                cur_id = sf[2]
                if sf[3] is _act_id:
                    pend_id += 1
                pend_rets += 1
                hits += 1
                top_fn = scratch[-1][0] if scratch else frames[-1].function
                if wcalls + pend_calls < {interval}:
                    continue
                why = 3
            elif len(frames) > 1:
                frame = frames[-1]
                act = frame.action
                if (act is _act_none or act is _act_id) and not frame.chain:
                    frames.pop()
                    if act is _act_id:
                        pend_id += 1
                    cur_id = frame.restore_id
                    pend_rets += 1
                    hits += 1
                    top_fn = frames[-1].function
                    if wcalls + pend_calls < {interval}:
                        continue
                    why = 3
        # General path: hand the engine exact state first.
        if state is not None:
{writeback_general}
            state = None
            cur_t = -1
{sync_out}
        wcalls = general(why, i, pend_calls, pend_rets, pend_id, pend_tc)
        if wcalls < 0:
            return i + 1, hits
{sync_in}
        pend_calls = 0
        pend_rets = 0
        pend_id = 0
        pend_tc = 0
        why = 1
    if state is not None:
{writeback_end}
{sync_out_end}
    general(0, i, pend_calls, pend_rets, pend_id, pend_tc)
    return -1, hits
"""


def compile_columnar_kernel(
    graph: "CallGraph",
    dictionary: "EncodingDictionary",
    tail_calling_functions: AbstractSet[FunctionId],
    *,
    gts: int,
    frame_factory: Callable[..., Any],
    action_none: Any,
    action_id: Any,
    stats: Any,
    warm: bool,
    profiled: bool,
    interval: int,
) -> Tuple[ColumnarKernel, int]:
    """``exec`` a dispatch kernel specialised for one engine epoch.

    Returns the kernel and the size of its entry dict.  ``gts`` only
    names the generated function (``_kernel_gts<N>``) so profiles and
    tracebacks identify which encoding epoch a kernel belongs to; the
    real specialisation constants are the entry dict compiled from
    ``dictionary`` (closure constant), ``warm``/``profiled`` (their
    branches are present in the source only when the feature is live)
    and ``interval`` (inlined literal).  The engine recompiles whenever
    any of them changes — see ``DacceEngine._ensure_columnar_kernel``.
    """
    entries = _dispatch_entries(graph, dictionary, tail_calling_functions)
    name = "_kernel_gts%d" % (gts,)
    source = _KERNEL_TEMPLATE.format(
        name=name,
        interval=interval,
        pcount="prof.countdown" if profiled else "0",
        writeback_switch=_WRITEBACK_BLOCK.format(i=" " * 20),
        writeback_general=_WRITEBACK_BLOCK.format(i=" " * 12),
        writeback_end=_WRITEBACK_BLOCK.format(i=" " * 8),
        warm_block=_WARM_BLOCK if warm else "",
        hit_call_end=_PROF_HIT_CALL_END if profiled else _HIT_CALL_END,
        sync_out="        prof.countdown = pcount" if profiled else "",
        sync_in="        pcount = prof.countdown" if profiled else "",
        sync_out_end="    prof.countdown = pcount" if profiled else "",
    )
    namespace: Dict[str, Any] = {
        "_entries_get": entries.get,
        "_frame": frame_factory,
        "_act_none": action_none,
        "_act_id": action_id,
        "_stats": stats,
    }
    exec(  # noqa: S102 - the source is generated above, not user input
        compile(source, "<columnar-kernel gts=%d>" % (gts,), "exec"),
        namespace,
    )
    return cast(ColumnarKernel, namespace[name]), len(entries)
