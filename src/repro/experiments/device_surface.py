"""Cross-generation speedup surface: the table the paper could not run.

The paper's speedup results are pinned to one device (the GT 560M).  With
the device-profile registry the modeled device is a parameter, so this
study sweeps the parallel SA over job sizes *and* GPU generations and
reports modeled runtime and speedup per (n, generation) cell -- the
speedup-vs-n-vs-generation surface.

Two invariants make the table meaningful (both are asserted in tests):

* **Quality is profile-independent** -- the search trajectory depends only
  on the seed and geometry, never on the timing model, so every
  generation's column reports the same objectives; only modeled runtimes
  move.
* **Internal consistency** -- within a column, speedup grows with n (the
  serial reference is O(n) per evaluation while the ensemble amortizes
  transfers and launch overhead).  Across columns the surface is honest
  about occupancy: transfers always improve with generation, but the
  paper's few-block launch cannot fill a 100+-SM part, so a wide
  datacenter GPU can model *slower* than a clocked-up gaming part at
  this geometry.  That underutilization effect is real (and pinned in
  ``tests/test_calibration.py``); filling the device is future work the
  table motivates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.parallel_sa import ParallelSAConfig, parallel_sa
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.speedup import _serial_sa_time
from repro.experiments.tables import render_table
from repro.gpusim.profiles import get_profile
from repro.instances.biskup import biskup_instance
from repro.instances.ucddcp_gen import ucddcp_instance
from repro.resilience import ResilientRunner, RunReport, WorkUnit

__all__ = [
    "SURFACE_PROFILES",
    "DeviceSurfaceCell",
    "DeviceSurfaceStudy",
    "run_device_surface_study",
]

#: Generations swept by default: the paper's device, the Kepler its text
#: claims, and two modern points (at least three generations, per the
#: study's purpose).
SURFACE_PROFILES = ("gt560m", "k20", "pascal", "ampere")


@dataclass(frozen=True)
class DeviceSurfaceCell:
    """One (size, generation) point of the surface."""

    size: int
    profile: str
    device_name: str
    objective: float
    serial_cpu_s: float
    modeled_gpu_s: float
    modeled_kernel_s: float
    modeled_memcpy_s: float

    @property
    def speedup(self) -> float:
        """Serial CPU time over this generation's modeled device time."""
        return self.serial_cpu_s / self.modeled_gpu_s


@dataclass
class DeviceSurfaceStudy:
    """The full speedup-vs-n-vs-generation surface for one problem."""

    problem: str
    scale: str
    iterations: int
    sizes: tuple[int, ...]
    profiles: tuple[str, ...]
    cells: dict[tuple[int, str], DeviceSurfaceCell] = field(
        default_factory=dict
    )
    report: RunReport | None = None

    def matrix(self, attr: str) -> np.ndarray:
        """``(len(sizes), len(profiles))`` matrix of a cell attribute."""
        out = np.full((len(self.sizes), len(self.profiles)), np.nan)
        for i, n in enumerate(self.sizes):
            for j, prof in enumerate(self.profiles):
                cell = self.cells.get((n, prof))
                if cell is not None:
                    out[i, j] = getattr(cell, attr)
        return out

    def _column_labels(self) -> list[str]:
        return [get_profile(p).spec.name for p in self.profiles]

    def render(self) -> str:
        """Speedup and modeled-runtime tables across generations."""
        labels = self._column_labels()
        speedup = self.matrix("speedup")
        gpu = self.matrix("modeled_gpu_s")
        t1 = render_table(
            ["Jobs", *labels],
            [[n, *speedup[i]] for i, n in enumerate(self.sizes)],
            title=(
                f"Modeled speedup vs serial CPU by GPU generation "
                f"({self.problem.upper()}, SA_{self.iterations}, "
                f"scale={self.scale})"
            ),
        )
        t2 = render_table(
            ["Jobs", *labels],
            [[n, *gpu[i]] for i, n in enumerate(self.sizes)],
            title="Modeled device runtime (seconds, transfers included)",
        )
        obj = self.matrix("objective")
        consistent = bool(np.all(
            np.nanmax(obj, axis=1) == np.nanmin(obj, axis=1)
        )) if obj.size else True
        note = (
            "Objectives identical across generations (timing-only model)."
            if consistent else
            "WARNING: objectives differ across generations -- the timing "
            "model leaked into the search trajectory."
        )
        sections = [t1, t2, note]
        if self.report is not None:
            footnote = self.report.footnote()
            if footnote:
                sections.append(footnote)
        return "\n\n".join(sections)


def _surface_cell_fn(
    instance,
    n: int,
    profile_key: str,
    iterations: int,
    scale: ExperimentScale,
    references: dict[int, float],
    engine: dict,
):
    """Work-unit body of one (size, generation) cell."""

    def run() -> dict:
        if n not in references:
            references[n] = _serial_sa_time(
                instance, iterations, scale.population
            )
        result = parallel_sa(
            instance,
            ParallelSAConfig(
                iterations=iterations,
                grid_size=scale.grid_size,
                block_size=scale.block_size,
                seed=31,
                device_profile=profile_key,
            ),
            **engine,
        )
        assert result.modeled_device_time_s is not None
        return asdict(DeviceSurfaceCell(
            size=n,
            profile=profile_key,
            device_name=get_profile(profile_key).spec.name,
            objective=float(result.objective),
            serial_cpu_s=float(references[n]),
            modeled_gpu_s=float(result.modeled_device_time_s),
            modeled_kernel_s=float(result.modeled_kernel_time_s),
            modeled_memcpy_s=float(result.modeled_memcpy_time_s),
        ))

    return run


def run_device_surface_study(
    problem: str = "cdd",
    scale: ExperimentScale | None = None,
    runner: ResilientRunner | None = None,
    profiles: tuple[str, ...] = SURFACE_PROFILES,
) -> DeviceSurfaceStudy:
    """Sweep the parallel SA over job sizes x GPU generations.

    Every cell solves the identical instance with the identical seed --
    only the device profile changes -- so the columns differ purely in
    modeled time.  The serial CPU reference is measured once per size and
    shared by all generations, exactly as the speedup study pins one
    published CPU runtime per job count.
    """
    scale = scale or get_scale()
    for p in profiles:
        get_profile(p)  # fail fast, naming the unknown key
    runner = runner or ResilientRunner()
    iterations = scale.iterations_low
    study = DeviceSurfaceStudy(
        problem=problem, scale=scale.name, iterations=iterations,
        sizes=scale.sizes, profiles=tuple(profiles),
    )

    # The surface is *about* modeled timings: always solve on gpusim.
    engine = runner.solver_engine("gpusim")
    references: dict[int, float] = {}
    units: list[WorkUnit] = []
    for n in scale.sizes:
        instance = (
            biskup_instance(n, scale.h_factors[0], scale.k_values[0])
            if problem == "cdd"
            else ucddcp_instance(n, scale.k_values[0])
        )
        for prof in profiles:
            units.append(WorkUnit(
                key=f"{problem}_n{n}|{prof}",
                run=_surface_cell_fn(instance, n, prof, iterations, scale,
                                     references, engine),
            ))

    checkpoint = runner.checkpoint_for(
        f"device_surface_{problem}_{scale.name}"
    )
    report = runner.run_units(units, checkpoint)
    for outcome in report.completed:
        cell = DeviceSurfaceCell(**outcome.payload)
        study.cells[(cell.size, cell.profile)] = cell
    study.report = report
    return study
