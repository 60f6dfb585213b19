"""Shared pieces: workload description, statistics, correctness tally."""

import resource
import statistics
import sys
from dataclasses import dataclass
from types import ModuleType


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a traced program plus a collector mix.

    ``program`` is a module with ``make_inputs(seed, size)`` and
    ``run(batch, probe, check_every)``.
    """

    name: str
    program: ModuleType
    #: Input size of one pass (the program defines the unit).
    size: int
    #: Input size of the traced pass whose frames the collector replays;
    #: larger than ``size``, so the replay cycles through more bodies.
    record_size: int
    #: Every ``check_every``-th input carries context checkpoints.
    check_every: int
    #: Untraced and no-op-hook passes on each side of a round's traced
    #: pass (they are much shorter, so several are averaged).
    calibration_repeats: int
    #: Producer sampling period, in calls.
    sample_every: int
    #: Distinct producers (run ids) replaying frames to the collector.
    producers: int
    #: Open-loop POST rate, per second (well below the drain's rate).
    post_rate: float
    #: Share of ``--seconds`` spent in the producer phase.
    producer_share: float
    #: Share of the collector phase spent in the open loop; the rest drains.
    open_loop_share: float


def noop_probe():
    """The checkpoint probe of passes that check nothing."""


def percentile(values, q):
    """The ``q``-th percentile (integer ``q`` in 1..99) of ``values``."""
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Counts correctness checks and requests, attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.labels = {}

    def check(self, ok, label="check"):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.labels[label] = self.labels.get(label, 0) + 1

    def add(self, attempted, failed, label="checkpoint"):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.labels[label] = self.labels.get(label, 0) + failed

    def report(self):
        for label, count in sorted(self.labels.items()):
            print("FAILED %s x%d" % (label, count), file=sys.stderr)

