"""The host's speed, from a fixed piece of work timed beside the workload.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU VM the
same solves ran 1.5x slower in one quarter of an hour than in the one
before, and within a minute the time of one fixed loop nearly doubled.
A fixed loop over small NumPy arrays and a fixed interpreter loop slowed
down together, by the same factor to within 2% over 10 s windows, and so
did the small-array solves.  The big-array solves of solve-large and the
fork, HTTP and fsync path of service-open felt less of it, so those two
report their times as measured (see README.md).

:func:`host_unit_s` times a fixed mix of both kinds of work that uses
nothing from the program.  It is timed after each cold set-up and, on
the workloads whose solves it tracks, between solves; those times are
reported in *reference seconds*, the time the host would have taken at
the speed pinned in ``config.HOST_UNIT_REF_S``::

    slowdown      = median(host units around the work) / HOST_UNIT_REF_S
    reported time = measured time / slowdown
    reported rate = measured rate * slowdown

A change to the program moves the reported figures by its own share,
since the host unit does not run the program.  The measured figures and
the slowdown go into the table and the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["host_unit_s", "HostClock"]

_RNG = np.random.default_rng(20140501)
_VALUES = _RNG.random(1000)
_INDEX = _RNG.integers(0, 1000, (192, 100))


def host_unit_s() -> float:
    """Wall time of one fixed unit of work: gathers and prefix sums on
    small arrays, as in the kernels, then an interpreter loop, as in the
    driver code (about 6 ms on a quiet 2-vCPU VM)."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(30):
        total += float(np.cumsum(_VALUES[_INDEX], axis=1).sum())
    counts: dict[int, int] = {}
    for i in range(30000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


class HostClock:
    """Host units timed over one measuring phase."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, units: int = 2) -> list[float]:
        """Time ``units`` host units (call it between operations) and
        return their times."""
        times = [host_unit_s() for _ in range(units)]
        self.samples.extend(times)
        return times

    def slowdown(self, times: list[float] | None = None) -> float:
        """Median host unit of ``times`` (default: every sample) over the
        pinned reference; above 1 the host ran slower."""
        from perfbench.config import HOST_UNIT_REF_S

        return statistics.median(times or self.samples) / HOST_UNIT_REF_S
