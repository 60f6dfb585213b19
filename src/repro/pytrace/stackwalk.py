"""Interpreter stack walking — the validation oracle for pytrace.

The paper cross-validates decoded contexts against stack walks captured
at the same sample points (Section 6.1).  For the Python frontend the
walk is a traversal of ``frame.f_back``, producing the same
``CallingContext`` shape the decoder emits so the two can be compared
step by step.
"""

from __future__ import annotations

import sys
from types import FrameType
from typing import List, Optional

from ..core.context import CallingContext, ContextStep
from .tracer import _IN_REGION, ROOT_FUNCTION, PythonDacceTracer


def walk_stack(
    tracer: PythonDacceTracer,
    frame: Optional[FrameType] = None,
    skip: int = 1,
) -> CallingContext:
    """Capture the current Python call path as the tracer would name it.

    ``skip`` drops that many innermost frames (this helper itself).
    Frames above the tracer's base (the harness) collapse into the
    root node, matching the engine's view.  Each live frame is named by
    the tracer's id stack, so an untracked region reads as one
    ``<untracked>`` step and the walk assigns no ids.
    """
    if frame is None:
        frame = sys._getframe(skip)
    # The context dataclasses' generated ``__init__``s (filename
    # ``<string>``) would otherwise be traced as program functions.
    previous = tracer._in_engine
    tracer._in_engine = True
    try:
        functions: List[int] = []
        live = {
            id(f): fid
            for f, fid in zip(tracer._live_frames, tracer._live_ids)
        }
        current: Optional[FrameType] = frame
        while current is not None:
            fid = live.get(id(current), _IN_REGION)
            if fid != _IN_REGION:
                functions.append(fid)
            current = current.f_back
        functions.append(ROOT_FUNCTION)
        functions.reverse()
        return CallingContext(tuple(ContextStep(fn) for fn in functions))
    finally:
        tracer._in_engine = previous


def contexts_agree(decoded: CallingContext, walked: CallingContext) -> bool:
    """Function-path equality (stack walks carry no call-site info)."""
    return decoded.functions() == walked.functions()
