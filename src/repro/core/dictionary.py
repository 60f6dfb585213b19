"""Decoding dictionaries — versioned encoding snapshots (Figure 6).

With adaptive encoding the call graph and its encodings change over time.
Every re-encoding bumps the global timestamp ``gTimeStamp``; collected
contexts are tagged with it, and decoding must use the dictionary that was
live when the context was recorded.  A dictionary is an *immutable*
snapshot of:

* ``Edge._encoding``  — the ``En`` value of every encoded edge,
* ``Node._numCC``     — the context count of every node,
* ``maxID``           — the maximum context id for that encoding,
* the graph structure (in-edges per node, back-edge flags) that
  Algorithm 1 walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import StaleDictionaryError
from .events import CallKind, CallSiteId, FunctionId

EdgeKey = Tuple[CallSiteId, FunctionId]


@dataclass(frozen=True)
class EdgeInfo:
    """Frozen view of one call edge as the decoder sees it.

    ``encoding`` is ``None`` for unencoded edges (back edges, or edges
    discovered after this dictionary was built).
    """

    caller: FunctionId
    callee: FunctionId
    callsite: CallSiteId
    kind: CallKind
    is_back: bool
    encoding: Optional[int]


class EncodingDictionary:
    """One immutable decoding dictionary, tagged with its timestamp."""

    def __init__(
        self,
        timestamp: int,
        numcc: Dict[FunctionId, int],
        edges: Dict[EdgeKey, EdgeInfo],
        max_id: int,
        root: FunctionId,
        overflow_bits: Optional[int] = None,
    ):
        self.timestamp = timestamp
        self.max_id = max_id
        self.root = root
        #: True when max_id does not fit the configured id width.
        self.overflow_bits = overflow_bits
        self._numcc = dict(numcc)
        self._edges = dict(edges)
        self._in_edges: Dict[FunctionId, List[EdgeInfo]] = {}
        for info in self._edges.values():
            self._in_edges.setdefault(info.callee, []).append(info)

    def same_encoding(self, other: "EncodingDictionary") -> bool:
        """True when ``other`` encodes exactly like this dictionary.

        Compares ``maxID``, every node's numCC and every edge's
        ``(encoding, is_back)`` — everything but the timestamp.  A
        re-encoding pass whose candidate matches the current dictionary
        changes nothing and is discarded.
        """
        return (
            self.max_id == other.max_id
            and self._numcc == other._numcc
            and self._edges == other._edges
        )

    # -- lookups used by Algorithm 1 -----------------------------------
    def numcc(self, function: FunctionId) -> int:
        """``numCC(function)``; unknown functions count one context."""
        return self._numcc.get(function, 1)

    def encoding(self, callsite: CallSiteId, callee: FunctionId) -> Optional[int]:
        """``En(e)`` of edge ``<callsite, callee>``; None if unencoded."""
        info = self._edges.get((callsite, callee))
        if info is None:
            return None
        return info.encoding

    def find_edge(
        self, callsite: CallSiteId, callee: FunctionId
    ) -> Optional[EdgeInfo]:
        """``getEdge(cs', ifun)`` of Algorithm 1."""
        return self._edges.get((callsite, callee))

    def in_edges(self, function: FunctionId) -> List[EdgeInfo]:
        """All recorded in-edges of ``function`` (encoded or not)."""
        return self._in_edges.get(function, [])

    def encoded_in_edges(self, function: FunctionId) -> List[EdgeInfo]:
        """In-edges of ``function`` that carry an encoding."""
        return [e for e in self.in_edges(function) if e.encoding is not None]

    def edges(self) -> Iterator[EdgeInfo]:
        return iter(self._edges.values())

    @property
    def num_nodes(self) -> int:
        return len(self._numcc)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def num_encoded_edges(self) -> int:
        return sum(1 for e in self._edges.values() if e.encoding is not None)

    @property
    def overflowed(self) -> bool:
        return self.overflow_bits is not None

    def __repr__(self) -> str:
        return "EncodingDictionary(ts=%d, nodes=%d, edges=%d, maxID=%d)" % (
            self.timestamp,
            self.num_nodes,
            self.num_edges,
            self.max_id,
        )


class DictionaryStore:
    """All dictionaries produced so far, indexed by ``gTimeStamp``.

    The engine appends a new dictionary after every re-encoding; decoders
    fetch by the timestamp recorded in each sample.
    """

    def __init__(self) -> None:
        self._by_timestamp: Dict[int, EncodingDictionary] = {}
        self._latest: Optional[EncodingDictionary] = None

    def add(self, dictionary: EncodingDictionary) -> None:
        self._by_timestamp[dictionary.timestamp] = dictionary
        if self._latest is None or dictionary.timestamp >= self._latest.timestamp:
            self._latest = dictionary

    def get(self, timestamp: int) -> EncodingDictionary:
        try:
            return self._by_timestamp[timestamp]
        except KeyError:
            raise StaleDictionaryError(
                "no decoding dictionary for timestamp %d" % timestamp,
                reason="stale-dictionary",
                gts=timestamp,
                available=sorted(self._by_timestamp),
            ) from None

    @property
    def latest(self) -> EncodingDictionary:
        if self._latest is None:
            raise StaleDictionaryError(
                "no dictionary has been produced yet",
                reason="stale-dictionary",
            )
        return self._latest

    def prune(self, before: int) -> int:
        """Drop dictionaries older than ``before``; returns the count.

        Deployed tools decode (or persist) collected contexts
        continuously; once every sample tagged with an old ``gTimeStamp``
        has been handled, its dictionary is dead weight.  The latest
        dictionary is never pruned.
        """
        latest_ts = self._latest.timestamp if self._latest else None
        doomed = [
            ts
            for ts in self._by_timestamp
            if ts < before and ts != latest_ts
        ]
        for ts in doomed:
            del self._by_timestamp[ts]
        return len(doomed)

    def discard_newer(self, timestamp: int) -> int:
        """Drop dictionaries newer than ``timestamp`` (re-encoding rollback).

        Returns the number removed and re-derives the latest pointer, so
        an aborted pass leaves the store exactly as it found it.
        """
        doomed = [ts for ts in self._by_timestamp if ts > timestamp]
        for ts in doomed:
            del self._by_timestamp[ts]
        if doomed:
            self._latest = None
            for dictionary in self._by_timestamp.values():
                if (
                    self._latest is None
                    or dictionary.timestamp >= self._latest.timestamp
                ):
                    self._latest = dictionary
        return len(doomed)

    def timestamps(self) -> List[int]:
        return sorted(self._by_timestamp)

    def __len__(self) -> int:
        return len(self._by_timestamp)

    def __contains__(self, timestamp: int) -> bool:
        return timestamp in self._by_timestamp
