"""Solution-quality study: Tables II & IV / Figures 12 & 15.

For every job size the paper reports the average percentage deviation

    %delta = (Z - Z_best) / Z_best * 100

of the four parallel algorithms (SA and DPSO, each at a low and a high
generation budget in ratio 1:5) over 40 benchmark instances, where
``Z_best`` comes from the sequential CPU implementations.  This module
reproduces the study end to end: instances from the generators, ``Z_best``
from :mod:`repro.bestknown`, the four runs per instance on the simulated
device, and per-size aggregation.

The study is decomposed into explicit work units -- one
``(instance, algorithm, budget)`` cell each -- executed through a
:class:`repro.resilience.ResilientRunner`: transient device failures are
retried, completed cells are checkpointed crash-safely, a resumed run
replays them bit-identically, and permanently failed cells degrade to a
``—`` mark plus a footnote instead of killing the whole table.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from repro.bestknown.compute import compute_best_known
from repro.bestknown.store import BestKnownStore
from repro.core.parallel_dpso import ParallelDPSOConfig, parallel_dpso
from repro.core.parallel_sa import ParallelSAConfig, parallel_sa
from repro.experiments.ascii_plot import grouped_bar_chart
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.paper_data import (
    PAPER_ALGO_LABELS,
    TABLE2_CDD_DEVIATION,
    TABLE4_UCDDCP_DEVIATION,
)
from repro.experiments.tables import render_table
from repro.instances.biskup import biskup_instance
from repro.instances.ucddcp_gen import ucddcp_instance
from repro.problems.cdd import CDDInstance
from repro.problems.ucddcp import UCDDCPInstance
from repro.resilience import ResilientRunner, RunReport, WorkUnit

__all__ = ["DeviationRun", "DeviationStudy", "run_deviation_study"]


@dataclass(frozen=True)
class DeviationRun:
    """One algorithm run on one instance."""

    instance: str
    size: int
    algorithm: str
    objective: float
    best_known: float
    deviation_pct: float
    wall_time_s: float
    modeled_device_time_s: float | None


@dataclass
class DeviationStudy:
    """Aggregated deviation study for one problem family."""

    problem: str
    scale: str
    labels: tuple[str, str, str, str]
    sizes: tuple[int, ...]
    # mean deviation per size per algorithm, shape (len(sizes), 4)
    mean_deviation: np.ndarray
    runs: list[DeviationRun] = field(default_factory=list)
    #: Resilience report of the run that produced this study (failed /
    #: skipped cells end up here and in the rendered footnote).
    report: RunReport | None = None

    def significance_report(self) -> str:
        """Pairwise Wilcoxon comparisons over per-instance deviations.

        Samples are paired per instance, so the comparison is restricted
        to instances every algorithm completed (failed cells of a
        degraded run drop that instance from the pairing, not the test).
        """
        from repro.analysis.stats import pairwise_report

        by_label: dict[str, dict[str, float]] = {
            lab: {} for lab in self.labels
        }
        for r in self.runs:
            by_label[r.algorithm][r.instance] = r.deviation_pct
        common = set.intersection(
            *(set(vals) for vals in by_label.values())
        ) if all(by_label.values()) else set()
        if not common:
            return "(not enough data for significance tests)"
        # Keep the canonical run order (clean runs stay byte-identical).
        order = [n for n in by_label[self.labels[0]] if n in common]
        samples = {
            lab: np.asarray([by_label[lab][name] for name in order])
            for lab in self.labels
        }
        return pairwise_report(samples)

    def per_h_breakdown(self) -> str:
        """Mean deviation split by restriction factor (CDD only)."""
        if self.problem != "cdd":
            return ""
        rows = []
        h_values = sorted({r.instance.split("_h")[-1] for r in self.runs})
        for h in h_values:
            row = [f"h={h}"]
            for lab in self.labels:
                vals = [
                    r.deviation_pct
                    for r in self.runs
                    if r.algorithm == lab and r.instance.endswith(f"_h{h}")
                ]
                row.append(float(np.mean(vals)) if vals else float("nan"))
            rows.append(row)
        return render_table(
            ["h factor", *self.labels], rows,
            title="Per-restriction-factor mean %deviation (all sizes pooled)",
        )

    def render(self) -> str:
        """The table in the paper's layout, plus the published values."""
        paper = (
            TABLE2_CDD_DEVIATION if self.problem == "cdd"
            else TABLE4_UCDDCP_DEVIATION
        )
        rows = []
        for i, n in enumerate(self.sizes):
            rows.append([
                n,
                *("—" if math.isnan(v) else float(v)
                  for v in self.mean_deviation[i]),
            ])
        ours = render_table(
            ["Jobs", *self.labels], rows,
            title=(
                f"Average %deviation vs best known ({self.problem.upper()}, "
                f"scale={self.scale})"
            ),
        )
        paper_rows = [[n, *paper[n]] for n in sorted(paper)]
        published = render_table(
            ["Jobs", *PAPER_ALGO_LABELS], paper_rows,
            title="Paper (Table II)" if self.problem == "cdd"
            else "Paper (Table IV)",
        )
        chart = grouped_bar_chart(
            [str(n) for n in self.sizes],
            {
                lab: self.mean_deviation[:, j].tolist()
                for j, lab in enumerate(self.labels)
            },
            title=(
                "Fig 12 analogue (CDD %deviation)" if self.problem == "cdd"
                else "Fig 15 analogue (UCDDCP %deviation)"
            ),
        )
        sections = [ours, published, chart,
                    "Significance (paired Wilcoxon over instances):\n"
                    + self.significance_report()]
        per_h = self.per_h_breakdown()
        if per_h:
            sections.append(per_h)
        if self.report is not None:
            footnote = self.report.footnote()
            if footnote:
                sections.append(footnote)
        return "\n\n".join(sections)

    def column(self, label: str) -> np.ndarray:
        """Mean-deviation series of one algorithm across sizes."""
        j = self.labels.index(label)
        return self.mean_deviation[:, j]


def _seed_for(name: str, algo: str) -> int:
    return zlib.crc32(f"{name}|{algo}".encode()) & 0x7FFFFFFF


def _instances_for_size(
    problem: str, n: int, scale: ExperimentScale
) -> list[CDDInstance | UCDDCPInstance]:
    if problem == "cdd":
        return [
            biskup_instance(n, h, k)
            for k in scale.k_values
            for h in scale.h_factors
        ]
    if problem == "ucddcp":
        return [ucddcp_instance(n, k) for k in scale.k_values]
    raise ValueError(f"unknown problem {problem!r}")


def _cell_fn(
    inst: CDDInstance | UCDDCPInstance,
    n: int,
    algo: str,
    iters: int,
    label: str,
    scale: ExperimentScale,
    store: BestKnownStore,
    engine: dict,
) -> Callable[[], dict]:
    """The work-unit body of one (instance, algorithm, budget) cell."""

    def run() -> dict:
        z_best = compute_best_known(
            inst, store,
            restarts=scale.bestknown_restarts,
            iterations=scale.bestknown_iterations,
        )
        seed = _seed_for(inst.name, f"{algo}_{iters}")
        if algo == "sa":
            result = parallel_sa(
                inst,
                ParallelSAConfig(
                    iterations=iters,
                    grid_size=scale.grid_size,
                    block_size=scale.block_size,
                    seed=seed,
                ),
                **engine,
            )
        else:
            result = parallel_dpso(
                inst,
                ParallelDPSOConfig(
                    iterations=iters,
                    grid_size=scale.grid_size,
                    block_size=scale.block_size,
                    seed=seed,
                ),
                **engine,
            )
        dev = (result.objective - z_best) / z_best * 100.0
        return asdict(DeviationRun(
            instance=inst.name,
            size=n,
            algorithm=label,
            objective=float(result.objective),
            best_known=float(z_best),
            deviation_pct=float(dev),
            wall_time_s=float(result.wall_time_s),
            modeled_device_time_s=(
                None if result.modeled_device_time_s is None
                else float(result.modeled_device_time_s)
            ),
        ))

    return run


def run_deviation_study(
    problem: str = "cdd",
    scale: ExperimentScale | None = None,
    store: BestKnownStore | None = None,
    progress: Callable[[str], None] | None = None,
    runner: ResilientRunner | None = None,
) -> DeviationStudy:
    """Run the full deviation study for ``problem`` at ``scale``.

    ``runner`` supplies the resilience layer: retries, the checkpoint
    store (``--resume`` replays completed cells bit-identically), fault
    injection and the execution backend.  Without one, a default runner
    (no checkpointing) is used and failed cells still degrade gracefully.
    """
    scale = scale or get_scale()
    store = store or BestKnownStore()
    runner = runner or ResilientRunner(progress=progress)
    if progress is not None and runner.progress is None:
        runner.progress = progress
    labels = (
        f"SA_{scale.iterations_low}",
        f"SA_{scale.iterations_high}",
        f"DPSO_{scale.iterations_low}",
        f"DPSO_{scale.iterations_high}",
    )
    sizes = scale.sizes
    variants = (
        ("sa", scale.iterations_low),
        ("sa", scale.iterations_high),
        ("dpso", scale.iterations_low),
        ("dpso", scale.iterations_high),
    )
    # A quality table: modeled device timings are not the measurement, so
    # solve on the fast vectorized backend (same trajectories bit-for-bit)
    # unless the user pinned one with --backend.
    engine = runner.solver_engine(prefer="vectorized")

    units: list[WorkUnit] = []
    for n in sizes:
        for inst in _instances_for_size(problem, n, scale):
            for j, (algo, iters) in enumerate(variants):
                units.append(WorkUnit(
                    key=f"{inst.name}|{labels[j]}",
                    run=_cell_fn(inst, n, algo, iters, labels[j], scale,
                                 store, engine),
                ))

    checkpoint = runner.checkpoint_for(f"deviation_{problem}_{scale.name}")
    report = runner.run_units(units, checkpoint)
    runs = [
        DeviationRun(**outcome.payload) for outcome in report.completed
    ]

    means = np.zeros((len(sizes), 4))
    for si, n in enumerate(sizes):
        for j, lab in enumerate(labels):
            vals = [r.deviation_pct for r in runs
                    if r.size == n and r.algorithm == lab]
            means[si, j] = float(np.mean(vals)) if vals else float("nan")

    return DeviationStudy(
        problem=problem,
        scale=scale.name,
        labels=labels,
        sizes=sizes,
        mean_deviation=means,
        runs=runs,
        report=report,
    )
