"""What every workload provides to the runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench.record import Metric
from perfbench.tracer import Tracer

__all__ = ["Outcome", "Workload"]


@dataclass
class Outcome:
    """What one measuring phase observed.

    ``latency_p50_s`` is the reported latency and ``latency_s`` the
    samples behind it.  On the solve workloads a sample is one job's
    median ``solve()`` wall over the repeats of the run, and the reported
    figure is their mean over the round's jobs (``latency_percentile`` is
    ``None``).  On the service a sample is one request, timed from its
    scheduled send to the arrival of its result document, and the
    reported figure is their median.  Both are medians over time, so a
    slow phase of a shared host shorter than half the run barely moves
    them.

    Where ``slowdown`` is set, ``latency_s``, ``latency_p50_s`` and
    ``evals_per_s`` are in reference seconds (see ``calibrate``): each
    solve's wall divided by the host's slowdown around it.  ``slowdown``
    is then the host's over the whole phase, and ``None`` where the
    figures are as measured.  The ``measured_*`` fields are the figures
    as timed either way.
    """

    latency_s: list[float]
    latency_p50_s: float
    latency_percentile: float | None
    evals_per_s: float
    measured_latency_p50_s: float
    measured_evals_per_s: float
    slowdown: float | None
    deviation_pct: float
    attempted: int
    failed: int
    #: What must not change when tracing is on (compared traced/untraced).
    results: list[Any]
    #: Workload-specific per-layer figures (traced phases only).
    layer_extra: dict[str, float] = field(default_factory=dict)
    #: Workload-specific entries of the run record.
    record_extra: list[Metric] = field(default_factory=list)


class Workload:
    """One set of inputs the benchmark runs.

    ``setup`` builds the inputs from the seed and starts whatever the
    workload needs (agent, service), ending with one warm-up call;
    ``measure`` runs it for about ``seconds``; ``teardown`` stops
    everything ``setup`` started and is safe to call twice.
    """

    name: str

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Tracer | None) -> Outcome:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop what ``setup`` started (default: nothing to stop)."""

    @staticmethod
    def same_results(a: list[Any], b: list[Any], what: str) -> None:
        """Results of two phases over the same inputs must match."""
        from perfbench.checks import check_same_solve, require

        require(len(a) == len(b), f"{what}: result counts differ")
        for i, (x, y) in enumerate(zip(a, b)):
            check_same_solve(x, y, f"{what} #{i}")
