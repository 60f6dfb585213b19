"""DACCE over live Python execution.

The paper instruments x86 binaries; this frontend instruments the Python
interpreter itself through ``sys.setprofile``, mapping code objects to
function ids and (caller code object, bytecode offset) pairs to call
sites.  Every Python call/return drives the same :class:`DacceEngine`
used by the synthetic substrate, so real programs get real dynamic
calling-context encoding: ids stay compact, recursion lands on the
ccStack, re-encoding adapts to the program's call mix, and any collected
sample decodes back to the exact Python call path.

This is the reproduction's end-to-end validation path: decoded contexts
are cross-checked against genuine interpreter stack walks
(:mod:`repro.pytrace.stackwalk`), mirroring the paper's libpfm4
cross-validation (Section 6.1).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from types import CodeType, FrameType
from typing import Any, Callable, Dict, List, Optional, Tuple

import os

from ..core.ccstack import UNTRACKED_FUNCTION
from ..core.columnar import EventColumns
from ..core.context import CallingContext, CollectedSample
from ..core.engine import DacceConfig, DacceEngine
from ..core.errors import TraceError

#: Function id reserved for the tracing root (the ``main`` node).
ROOT_FUNCTION = 0

#: ``_code_ids`` value for code the tracer never traces (see
#: ``_PACKAGE_ROOT``, plus frozen stdlib helpers).
_IGNORED = -4

#: ``_live_ids`` entry for a frame inside an untracked region, below the
#: frame that opened it (which holds ``UNTRACKED_FUNCTION``): its call
#: and return reach the engine as zero events.
_IN_REGION = -3

#: The tracer never traces the repro package itself — its own engine
#: calls (sampling, decoding) run while the profile hook is active.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class FunctionInfo:
    """Human-readable identity of a traced Python function."""

    id: int
    name: str
    filename: str
    firstlineno: int

    @property
    def qualified(self) -> str:
        return "%s:%d:%s" % (self.filename, self.firstlineno, self.name)


class PythonDacceTracer:
    """Encode the calling contexts of real Python execution.

    Usage::

        tracer = PythonDacceTracer()
        with tracer:
            my_workload()
        sample = tracer.last_samples[-1]
        text = tracer.format_context(tracer.decode(sample))

    Samples are taken with :meth:`sample` (callable from inside the
    traced code), or automatically every ``sample_every`` calls.

    Limitations (documented, by design): C-level calls are not traced
    (no Python frame), and the tracer follows a single thread — the
    multi-threaded machinery is exercised by the synthetic substrate.
    """

    def __init__(
        self,
        config: Optional[DacceConfig] = None,
        sample_every: int = 0,
        static_graph: Optional[Any] = None,
        source_root: Optional[str] = None,
        wall_time: bool = False,
        targeted: Optional[Any] = None,
    ):
        # Targeted mode (repro.static.targeted): the engine encodes only
        # the plan's sink-reaching subgraph, and out-of-plan code maps to
        # ``UNTRACKED_FUNCTION`` — no function id, no callsite mapping
        # and (inside an untracked region) no engine events at all.  Full
        # tracing is the same path with no code out of plan.  Under
        # ``sys.setprofile`` the interpreter still invokes the hook, so
        # the modeled saving is everything past the ``_code_ids`` probe;
        # a real deployment (sys.monitoring's per-code DISABLE, or binary
        # patching as in the paper) would also skip the callback itself.
        self.targeted = targeted
        self._plan_fns: Optional[set] = None
        self.skipped_code_objects = 0
        self.suppressed_events = 0
        self._static_site: Dict[Tuple[int, int], int] = {}
        if targeted is not None:
            if targeted.warm_start.graph.root != ROOT_FUNCTION:
                raise TraceError(
                    "a targeted plan for tracing must be built against the "
                    "tracer root: build_targeted(..., root=%d)"
                    % ROOT_FUNCTION
                )
            if source_root is None:
                raise TraceError(
                    "targeted tracing requires source_root (plan function "
                    "ids are static ids)"
                )
            if static_graph is None:
                # The full analysed graph, so every statically known
                # function resolves to its id for plan checks.
                static_graph = targeted.report.graph
            self._plan_fns = set(targeted.functions)
            # Tracked-pair -> seeded static call site.  Emitting the
            # *static* site id for tracked calls lands them on the
            # warm-started dictionary edges instead of re-discovering
            # every edge under fresh dynamic site ids (pairs with
            # several static sites collapse onto the smallest — a
            # deliberate precision trade documented in the docs).
            for edge in targeted.static_graph.edges():
                key = (edge.caller, edge.callee)
                site = self._static_site.get(key)
                if site is None or edge.callsite < site:
                    self._static_site[key] = edge.callsite
            self.engine = DacceEngine(config=config, targeted=targeted)
        else:
            self.engine = DacceEngine(root=ROOT_FUNCTION, config=config)
        self.sample_every = sample_every
        self.samples: List[CollectedSample] = []
        #: Per-sample weights, parallel to :attr:`samples`: 1.0 each in
        #: call-count mode, the wall-clock seconds since the previous
        #: sample when ``wall_time`` is set — the two weight models the
        #: profiling subsystem (:mod:`repro.prof`) aggregates by.
        self.wall_time = wall_time
        self.sample_weights: List[float] = []
        self._last_sample_time: Optional[float] = None
        #: Every code object seen, classified once on first sight: its
        #: function id, ``UNTRACKED_FUNCTION`` (out of the targeted plan)
        #: or ``_IGNORED``.
        self._code_ids: Dict[CodeType, int] = {}
        self._function_names: Dict[int, FunctionInfo] = {
            ROOT_FUNCTION: FunctionInfo(ROOT_FUNCTION, "<root>", "<tracer>", 0)
        }
        if targeted is not None:
            self._function_names[UNTRACKED_FUNCTION] = FunctionInfo(
                UNTRACKED_FUNCTION, "<untracked>", "<targeted>", 0
            )
        self._callsites: Dict[Tuple[int, int], int] = {}
        self._next_function = ROOT_FUNCTION + 1
        self._next_callsite = 1
        # Code-object -> static-function-id mapping.  With a
        # ``StaticCallGraph`` (from ``repro.static``) and the source root
        # it was extracted from, traced functions take the *static* ids,
        # so dynamic edges line up with static edges for the lint
        # cross-check.  The graph's ids must avoid ``ROOT_FUNCTION``
        # (allocate the FunctionIndex with ``first_id=1``); an id-0 entry
        # is indistinguishable from the tracing root and is skipped.
        self._static_ids: Dict[Tuple[str, str, int], int] = {}
        self._source_root = ""
        self.static_hits = 0
        if static_graph is not None:
            if source_root is None:
                raise TraceError(
                    "static_graph requires source_root to map filenames"
                )
            self._source_root = os.path.abspath(source_root)
            highest = ROOT_FUNCTION
            for fn in static_graph.functions():
                if fn.id == ROOT_FUNCTION:
                    continue
                name = fn.qualname.rsplit(".", 1)[-1]
                self._static_ids[(fn.module, name, fn.firstlineno)] = fn.id
                self._function_names[fn.id] = FunctionInfo(
                    fn.id, fn.qualname, fn.module, fn.firstlineno
                )
                highest = max(highest, fn.id)
            # Dynamically discovered functions must not collide with the
            # statically allocated id range.
            self._next_function = highest + 1
            if self._plan_fns is not None:
                # Dynamic (boundary) call sites must not collide with
                # the static site ids seeded into the engine dictionary.
                top_site = max(
                    (edge.callsite for edge in static_graph.edges()),
                    default=0,
                )
                self._next_callsite = max(self._next_callsite, top_site + 1)
        #: Frames the hook has pushed, bottom first, and parallel to them
        #: each frame's function id — ``UNTRACKED_FUNCTION`` for a frame
        #: that opened an untracked region, ``_IN_REGION`` inside one.
        self._live_frames: List[FrameType] = []
        self._live_ids: List[int] = []
        self._active = False
        self._calls_since_sample = 0
        self._base_frame: Optional[FrameType] = None
        #: Pending events as a preallocated struct-of-arrays slab,
        #: drained through the engine's code-generated columnar fast
        #: lane.  The per-call profile-hook work is a handful of integer
        #: column stores; anything that observes engine state (sampling,
        #: decoding, the shadow-stack oracle, ``stop``) flushes first,
        #: so observable behaviour is unchanged.  ``clear()`` keeps the
        #: storage, so a long trace never reallocates the slab.
        self._buffer_limit = 512
        self._columns = EventColumns.with_capacity(self._buffer_limit)
        #: Samples delivered by the engine hook while an aggregator is
        #: attached; decoded and folded in one batch per flush instead
        #: of per sample inside the hot callback.
        self._pending_cct: List[Tuple[CollectedSample, float]] = []
        self._cct_aggregator: Optional[Any] = None
        #: True while engine machinery runs under an active profile hook
        #: (flush / sample / decode called from traced code); the hook
        #: ignores those interpreter events — they belong to the tracer,
        #: not the traced program.
        self._in_engine = False

    # ------------------------------------------------------------------
    # identity mapping
    # ------------------------------------------------------------------
    def _classify(self, code: CodeType) -> int:
        """Map ``code`` to its ``_code_ids`` value (called once per code).

        Out-of-plan code never gets a function id; ``skipped_code_objects``
        counts it.
        """
        filename = code.co_filename
        if filename.startswith(_PACKAGE_ROOT) or filename.startswith("<frozen"):
            assigned = _IGNORED
        else:
            static_id = self._static_function_id(code)
            if self._plan_fns is not None and static_id not in self._plan_fns:
                assigned = UNTRACKED_FUNCTION
                self.skipped_code_objects += 1
            else:
                if static_id is None:
                    assigned = self._next_function
                    self._next_function += 1
                else:
                    assigned = static_id
                    self.static_hits += 1
                self._function_names[assigned] = FunctionInfo(
                    assigned,
                    code.co_name,
                    filename,
                    code.co_firstlineno,
                )
        self._code_ids[code] = assigned
        return assigned

    @property
    def _functions(self) -> Dict[CodeType, FunctionInfo]:
        """Each traced code object with its identity."""
        names = self._function_names
        return {
            code: names[fid] for code, fid in self._code_ids.items() if fid >= 0
        }

    def _static_function_id(self, code: CodeType) -> Optional[int]:
        """The static id of ``code``, when a static mapping is loaded.

        Matching is exact: the dotted module name (derived from the
        filename relative to the source root) plus the bare function
        name plus ``co_firstlineno`` — which the extractor computed
        decorator-adjusted, the way live code objects report it.
        """
        if not self._static_ids:
            return None
        filename = os.path.abspath(code.co_filename)
        if not filename.startswith(self._source_root + os.sep):
            return None
        from ..static.pyextract import MODULE_BODY, module_name_for

        module = module_name_for(filename, self._source_root)
        if code.co_name == "<module>":
            return self._static_ids.get((module, MODULE_BODY, 0))
        return self._static_ids.get(
            (module, code.co_name, code.co_firstlineno)
        )

    def _callsite_id(self, caller: int, lasti: int) -> int:
        key = (caller, lasti)
        site = self._callsites.get(key)
        if site is None:
            site = self._next_callsite
            self._callsites[key] = site
            self._next_callsite += 1
        return site

    def function_info(self, function_id: int) -> FunctionInfo:
        try:
            return self._function_names[function_id]
        except KeyError:
            raise TraceError("unknown function id %d" % function_id) from None

    # ------------------------------------------------------------------
    # tracing lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "PythonDacceTracer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def start(self) -> None:
        if self._active:
            raise TraceError("tracer already active")
        self._active = True
        self._calls_since_sample = 0
        self._last_sample_time = time.perf_counter()
        # Frames at or above the base frame belong to the harness, not
        # the traced program; they map onto the engine's root node.
        self._base_frame = sys._getframe(1)
        sys.setprofile(self._profile)

    def stop(self) -> None:
        if not self._active:
            return
        sys.setprofile(None)
        self._active = False
        # Synthetically unwind frames that are still live (the traced
        # call may terminate via an exception caught above us).
        while self._live_ids:
            self._live_frames.pop()
            if self._live_ids.pop() != _IN_REGION:
                self._columns.push_return(0)
        self.flush()
        self._base_frame = None

    def flush(self) -> None:
        """Drain buffered events into the engine's columnar fast lane."""
        cols = self._columns
        if len(cols):
            self._in_engine = True
            try:
                self.engine.process_columns(cols)
            finally:
                self._in_engine = False
                cols.clear()
        if self._pending_cct:
            self._drain_cct_samples()

    # ------------------------------------------------------------------
    def _profile(self, frame: FrameType, event: str, arg: Any) -> None:
        if self._in_engine:
            return
        if event == "call":
            self._on_call(frame)
        elif event == "return":
            self._on_return(frame)
        # c_call / c_return / exception events carry no Python frame
        # transition we need to encode.

    def _on_call(self, frame: FrameType) -> None:
        code = frame.f_code
        callee_id = self._code_ids.get(code)
        if callee_id is None:
            callee_id = self._classify(code)
        if callee_id == _IGNORED:
            return  # never trace the tracer/engine machinery itself
        ids = self._live_ids
        if not ids:
            caller_id = ROOT_FUNCTION
            lasti = 0
        else:
            caller_id = ids[-1]
            if caller_id >= 0:
                # The traced caller's own offset: the call may have come
                # through untraced frames (a frozen helper, repro code)
                # whose ``f_lasti`` names no site in the caller.
                lasti = self._live_frames[-1].f_lasti
            elif callee_id == UNTRACKED_FUNCTION:
                # Interior of an untracked region: zero engine events.
                # With per-code DISABLE (sys.monitoring) or binary
                # patching the interpreter would not even call the hook.
                self._live_frames.append(frame)
                ids.append(_IN_REGION)
                self.suppressed_events += 1
                return
            else:
                # Re-entry from an untracked region: the true call path
                # passed through unencoded code, so the caller is the
                # merged ``<untracked>`` pseudo-function (the engine
                # pushes the boundary ccStack entry Algorithm 1 needs).
                caller_id = UNTRACKED_FUNCTION
                lasti = 0
        site = (
            self._static_site.get((caller_id, callee_id))
            if self._static_site
            else None
        )
        if site is None:
            site = self._callsite_id(caller_id, lasti)
        self._columns.push_call(0, site, caller_id, callee_id)
        self._live_frames.append(frame)
        # An out-of-plan callee here is a departure: its
        # ``UNTRACKED_FUNCTION`` entry opens an untracked region.
        ids.append(callee_id)
        if self.sample_every:
            self._calls_since_sample += 1
            if self._calls_since_sample >= self.sample_every:
                self._calls_since_sample = 0
                self._record_sample()
        if len(self._columns) >= self._buffer_limit:
            self.flush()

    def _on_return(self, frame: FrameType) -> None:
        frames = self._live_frames
        if not frames or frames[-1] is not frame:
            return  # return of an untraced frame
        frames.pop()
        if self._live_ids.pop() == _IN_REGION:
            self.suppressed_events += 1
            return
        self._columns.push_return(0)
        if len(self._columns) >= self._buffer_limit:
            self.flush()

    # ------------------------------------------------------------------
    # sampling / decoding
    # ------------------------------------------------------------------
    def sample(self) -> CollectedSample:
        """Record the current context id + ccStack (from traced code)."""
        return self._record_sample()

    def _record_sample(self) -> CollectedSample:
        from ..core.events import SampleEvent

        self.flush()
        self._in_engine = True
        try:
            sample = self.engine.on_sample(SampleEvent(thread=0))
        finally:
            self._in_engine = False
        self.samples.append(sample)
        self.sample_weights.append(self._next_weight())
        return sample

    def _next_weight(self) -> float:
        """The weight of the sample being recorded right now."""
        if not self.wall_time:
            return 1.0
        now = time.perf_counter()
        previous = self._last_sample_time
        self._last_sample_time = now
        return now - previous if previous is not None else 0.0

    def attach_aggregator(
        self,
        aggregator: Any,
        every: int = 64,
        wall_time: Optional[bool] = None,
    ) -> Any:
        """Stream engine-hook samples into a ``CCTAggregator``.

        Installs the engine's continuous-profiling hook
        (:meth:`~repro.core.engine.DacceEngine.install_sample_hook`)
        with a callback that only *records* the sample — the decode and
        CCT fold run batched at the next :meth:`flush` (and at
        :meth:`stop`), with the aggregator's decoder refreshed once per
        drain instead of once per sample.  Deferral is lossless:
        dictionaries are immutable and grow-only, so a decoder built at
        drain time decodes every earlier-epoch sample identically.
        ``wall_time`` overrides the tracer-level weight mode; in call
        mode each sample weighs ``every`` calls, so total CCT weight
        tracks total traced calls.
        """
        use_wall = self.wall_time if wall_time is None else wall_time
        weigher: Optional[Callable[[], float]] = None
        if use_wall:
            last = [time.perf_counter()]

            def weigher() -> float:
                now = time.perf_counter()
                delta = now - last[0]
                last[0] = now
                return delta

        self._cct_aggregator = aggregator
        pending = self._pending_cct

        def deliver(sample: CollectedSample, weight: float) -> None:
            # Hot callback: one list append.  The decode happens in
            # ``_drain_cct_samples`` at the batched flush.
            pending.append((sample, weight))

        return self.engine.install_sample_hook(every, deliver, weigher=weigher)

    def _drain_cct_samples(self) -> None:
        """Decode and fold hook samples collected since the last drain."""
        aggregator = self._cct_aggregator
        if aggregator is None:
            return
        batch = self._pending_cct[:]
        del self._pending_cct[:]
        self._in_engine = True
        try:
            aggregator.decoder = self.engine.decoder()
            for sample, weight in batch:
                aggregator.add_sample(sample, weight)
        finally:
            self._in_engine = False

    def decode(self, sample: CollectedSample) -> CallingContext:
        """Decode a sample back into the full Python call path."""
        self.flush()
        self._in_engine = True
        try:
            return self.engine.decoder().decode(sample)
        finally:
            self._in_engine = False

    def expected_context(self) -> CallingContext:
        """The engine's shadow-stack oracle for the current point."""
        self.flush()
        self._in_engine = True
        try:
            return self.engine.expected_context(0)
        finally:
            self._in_engine = False

    def format_context(self, context: CallingContext) -> str:
        """Render a decoded context with real function names."""
        parts = []
        for step in context.steps:
            info = self._function_names.get(step.function)
            name = info.name if info else "fn%d" % step.function
            if step.count:
                name += "*%d" % (step.count + 1)
            parts.append(name)
        return " -> ".join(parts)

    def name_of(self, function_id: int) -> str:
        """The traced name of a function id, with an ``fnN`` fallback."""
        info = self._function_names.get(function_id)
        return info.name if info is not None else "fn%d" % function_id

    def name_resolver(self) -> Callable[[int], str]:
        """A name resolver for the profiling exporters (`repro.prof`)."""
        from ..prof import default_names

        def resolve(function_id: int) -> str:
            info = self._function_names.get(function_id)
            if info is not None:
                return info.name
            return default_names(function_id)

        return resolve

    # ------------------------------------------------------------------
    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Trace one callable and return its result."""
        with self:
            return fn(*args, **kwargs)

    @property
    def num_functions(self) -> int:
        return self._next_function - 1

    @property
    def num_callsites(self) -> int:
        return self._next_callsite - 1
