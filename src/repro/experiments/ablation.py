"""Ablations for the design choices the paper discusses in prose.

* **Block size** (Section VIII): "after several experimental evaluations we
  observe that the best results for both the problems are achieved with a
  block size of 192" -- we sweep the block size at a fixed total thread
  count and report modeled generation time and occupancy.
* **Async vs sync SA** (Section VI): "The reason for choosing the
  asynchronous version over the synchronous SA is due to the premature
  convergence of the latter" -- we run both at equal budgets and compare
  final quality and population diversity.
* **Cooling rate** (Section VI): "The exponential cooling rate of 0.88 has
  been adopted in this work, which is inferred from our experiments over a
  range of cooling rates" -- we sweep mu.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.parallel_sa import ParallelSAConfig, parallel_sa
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.tables import render_table
from repro.gpusim.device import Device
from repro.gpusim.profiles import DEFAULT_PROFILE, get_profile
from repro.gpusim.launch import linear_config, occupancy
from repro.instances.biskup import biskup_instance
from repro.kernels.data import DeviceProblemData
from repro.kernels.fitness import make_cdd_fitness_kernel
from repro.resilience import ResilientRunner, RunReport, WorkUnit


def _ablation_footnote(report: RunReport | None) -> str:
    """Footnote section for a rendered ablation ("" when clean)."""
    if report is None:
        return ""
    return report.footnote()

__all__ = [
    "BlockSizeAblation",
    "SyncAsyncAblation",
    "CoolingAblation",
    "run_blocksize_ablation",
    "run_sync_vs_async",
    "run_cooling_ablation",
    "TextureAblation",
    "run_texture_ablation",
    "CouplingAblation",
    "run_coupling_ablation",
    "RefreshAblation",
    "run_refresh_ablation",
    "StrategyAblation",
    "run_strategy_ablation",
]


# ----------------------------------------------------------------------
# Block size
# ----------------------------------------------------------------------
@dataclass
class BlockSizeAblation:
    """Per-block-size modeled fitness time and occupancy."""

    total_threads: int
    n_jobs: int
    block_sizes: tuple[int, ...]
    kernel_time_s: np.ndarray
    occupancy_pct: np.ndarray
    limiter: list[str]
    report: RunReport | None = None

    def render(self) -> str:
        """Table of block size vs modeled kernel time and occupancy."""
        rows = [
            [b, self.kernel_time_s[i], self.occupancy_pct[i], self.limiter[i]]
            for i, b in enumerate(self.block_sizes)
        ]
        tab = render_table(
            ["Block", "fitness time (s)", "occupancy %", "limited by"],
            rows,
            title=(
                f"Block-size ablation: {self.total_threads} threads, "
                f"CDD n={self.n_jobs} (paper picks 192)"
            ),
        )
        footnote = _ablation_footnote(self.report)
        return f"{tab}\n\n{footnote}" if footnote else tab


def _blocksize_point_fn(instance, n: int, block: int, total_threads: int,
                        fault_plan, device_profile: str = DEFAULT_PROFILE):
    """Work-unit body of one block-size point."""

    def run() -> dict:
        profile = get_profile(device_profile)
        kernel = make_cdd_fitness_kernel()
        device = Device(spec=profile.spec, seed=1, fault_plan=fault_plan,
                        timing=profile.create_timing_model())
        data = DeviceProblemData(device, instance)
        seqs = device.malloc((total_threads, n), np.int32, "sequences")
        out = device.malloc(total_threads, np.float64, "fitness")
        rng = np.random.default_rng(7)
        device.memcpy_htod(
            seqs,
            np.argsort(rng.random((total_threads, n)), axis=1).astype(np.int32),
        )
        cfg = linear_config(total_threads, block)
        device.reset_clocks()
        device.launch(kernel, cfg, seqs, data.p, data.a, data.b, out)
        device.synchronize()
        occ = occupancy(
            profile.spec, block, kernel.registers_per_thread,
            kernel.shared_bytes_for(seqs, data.p, data.a, data.b, out),
        )
        return {
            "block": block,
            "kernel_time_s": float(device.profiler.kernel_time()),
            "occupancy_pct": float(occ.occupancy * 100.0),
            "limiter": occ.limiter,
        }

    return run


def run_blocksize_ablation(
    scale: ExperimentScale | None = None,
    total_threads: int = 768,
    runner: ResilientRunner | None = None,
    device_profile: str = DEFAULT_PROFILE,
) -> BlockSizeAblation:
    """Sweep the block size at a fixed total thread count."""
    scale = scale or get_scale()
    runner = runner or ResilientRunner()
    spec = get_profile(device_profile).spec
    n = scale.fig11_n
    instance = biskup_instance(n, 0.4, 1)
    sizes = tuple(
        b for b in scale.blocksize_candidates
        if b <= min(total_threads, spec.max_threads_per_block)
    )
    units = [
        WorkUnit(
            key=f"block{block}",
            run=_blocksize_point_fn(instance, n, block, total_threads,
                                    runner.fault_plan, device_profile),
        )
        for block in sizes
    ]
    suffix = "" if device_profile == DEFAULT_PROFILE else f"_{device_profile}"
    checkpoint = runner.checkpoint_for(
        f"ablation_blocksize_{scale.name}{suffix}"
    )
    report = runner.run_units(units, checkpoint)

    times = np.full(len(sizes), np.nan)
    occs = np.full(len(sizes), np.nan)
    limiters: list[str] = ["—"] * len(sizes)
    by_block = {o.payload["block"]: o.payload for o in report.completed}
    for i, block in enumerate(sizes):
        if block in by_block:
            times[i] = by_block[block]["kernel_time_s"]
            occs[i] = by_block[block]["occupancy_pct"]
            limiters[i] = by_block[block]["limiter"]
    return BlockSizeAblation(
        total_threads=total_threads,
        n_jobs=n,
        block_sizes=sizes,
        kernel_time_s=times,
        occupancy_pct=occs,
        limiter=limiters,
        report=report,
    )


# ----------------------------------------------------------------------
# Async vs sync
# ----------------------------------------------------------------------
@dataclass
class SyncAsyncAblation:
    """Final quality of the async and sync SA variants at equal budgets."""

    sizes: tuple[int, ...]
    async_objective: np.ndarray
    sync_objective: np.ndarray
    sync_premature_pct: np.ndarray  # % by which sync is worse
    report: RunReport | None = None

    def render(self) -> str:
        """Comparison table (positive last column = sync is worse)."""
        rows = [
            [
                n,
                self.async_objective[i],
                self.sync_objective[i],
                self.sync_premature_pct[i],
            ]
            for i, n in enumerate(self.sizes)
        ]
        tab = render_table(
            ["Jobs", "async obj", "sync obj", "sync worse by %"],
            rows,
            title="Async vs synchronous parallel SA (equal budgets)",
        )
        footnote = _ablation_footnote(self.report)
        return f"{tab}\n\n{footnote}" if footnote else tab


def _syncasync_point_fn(n: int, variant: str, replicates: int,
                        scale: ExperimentScale, engine):
    """Work-unit body: one SA variant's replicate mean at one size."""

    def run() -> dict:
        instance = biskup_instance(n, 0.4, 1)
        vals = []
        for r in range(replicates):
            seed = zlib.crc32(f"syncasync:{n}:{r}".encode()) & 0x7FFFFFFF
            vals.append(
                parallel_sa(
                    instance,
                    ParallelSAConfig(
                        iterations=scale.iterations_low,
                        grid_size=scale.grid_size,
                        block_size=scale.block_size,
                        variant=variant,
                        seed=seed,
                    ),
                    **engine,
                ).objective
            )
        return {"size": n, "variant": variant,
                "objective": float(np.mean(vals))}

    return run


def run_sync_vs_async(
    scale: ExperimentScale | None = None,
    replicates: int = 3,
    runner: ResilientRunner | None = None,
) -> SyncAsyncAblation:
    """Compare the two Ferreiro parallelization strategies."""
    scale = scale or get_scale()
    runner = runner or ResilientRunner()
    sizes = scale.sizes[: min(4, len(scale.sizes))]
    engine = runner.solver_engine(prefer="vectorized")
    units = [
        WorkUnit(
            key=f"n{n}|{variant}",
            run=_syncasync_point_fn(n, variant, replicates, scale, engine),
        )
        for n in sizes
        for variant in ("async", "sync")
    ]
    checkpoint = runner.checkpoint_for(f"ablation_syncasync_{scale.name}")
    report = runner.run_units(units, checkpoint)

    objs = {
        (o.payload["size"], o.payload["variant"]): o.payload["objective"]
        for o in report.completed
    }
    async_obj = np.array([objs.get((n, "async"), np.nan) for n in sizes])
    sync_obj = np.array([objs.get((n, "sync"), np.nan) for n in sizes])
    worse = (sync_obj - async_obj) / async_obj * 100.0
    return SyncAsyncAblation(
        sizes=tuple(sizes),
        async_objective=async_obj,
        sync_objective=sync_obj,
        sync_premature_pct=worse,
        report=report,
    )


# ----------------------------------------------------------------------
# Cooling rate
# ----------------------------------------------------------------------
@dataclass
class CoolingAblation:
    """Mean final objective per cooling rate."""

    n_jobs: int
    rates: tuple[float, ...]
    objective: np.ndarray
    report: RunReport | None = None

    def render(self) -> str:
        """Table of cooling rate vs mean objective (0.88 is the paper pick)."""
        rows = [[mu, self.objective[i]] for i, mu in enumerate(self.rates)]
        tab = render_table(
            ["mu", "mean objective"], rows,
            title=f"Cooling-rate ablation (CDD n={self.n_jobs})",
        )
        footnote = _ablation_footnote(self.report)
        return f"{tab}\n\n{footnote}" if footnote else tab


def _cooling_point_fn(instance, mu: float, replicates: int,
                      scale: ExperimentScale, engine):
    """Work-unit body of one cooling-rate point."""

    def run() -> dict:
        vals = []
        for r in range(replicates):
            seed = zlib.crc32(f"cooling:{mu}:{r}".encode()) & 0x7FFFFFFF
            vals.append(
                parallel_sa(
                    instance,
                    ParallelSAConfig(
                        iterations=scale.iterations_low,
                        grid_size=scale.grid_size,
                        block_size=scale.block_size,
                        cooling_rate=mu,
                        seed=seed,
                    ),
                    **engine,
                ).objective
            )
        return {"mu": mu, "objective": float(np.mean(vals))}

    return run


def run_cooling_ablation(
    scale: ExperimentScale | None = None,
    replicates: int = 3,
    runner: ResilientRunner | None = None,
) -> CoolingAblation:
    """Sweep the exponential cooling rate on a mid-size instance."""
    scale = scale or get_scale()
    runner = runner or ResilientRunner()
    n = scale.fig11_n
    instance = biskup_instance(n, 0.4, 1)
    engine = runner.solver_engine(prefer="vectorized")
    units = [
        WorkUnit(
            key=f"mu{mu}",
            run=_cooling_point_fn(instance, mu, replicates, scale, engine),
        )
        for mu in scale.cooling_rates
    ]
    checkpoint = runner.checkpoint_for(f"ablation_cooling_{scale.name}")
    report = runner.run_units(units, checkpoint)

    by_mu = {o.payload["mu"]: o.payload["objective"]
             for o in report.completed}
    objs = np.array([by_mu.get(mu, np.nan) for mu in scale.cooling_rates])
    return CoolingAblation(
        n_jobs=n, rates=scale.cooling_rates, objective=objs, report=report
    )


# ----------------------------------------------------------------------
# Texture memory (the paper's future-work item)
# ----------------------------------------------------------------------
@dataclass
class TextureAblation:
    """Modeled fitness time with and without the texture-cache path."""

    n_jobs: int
    plain_s: float
    texture_s: float
    report: RunReport | None = None

    @property
    def saving_pct(self) -> float:
        """Relative modeled saving of the texture path."""
        return 100.0 * (1.0 - self.texture_s / self.plain_s)

    def render(self) -> str:
        """Two-row comparison table."""
        tab = render_table(
            ["fitness kernel", "modeled time (ms)"],
            [["global-memory gathers", self.plain_s * 1e3],
             ["texture-cached gathers", self.texture_s * 1e3],
             ["saving", f"{self.saving_pct:.1f}%"]],
            title=(
                f"Texture-memory ablation (paper future work), CDD "
                f"n={self.n_jobs}, 768 threads"
            ),
        )
        footnote = _ablation_footnote(self.report)
        return f"{tab}\n\n{footnote}" if footnote else tab


def _texture_point_fn(instance, n: int, use_texture: bool,
                      total_threads: int, fault_plan,
                      device_profile: str = DEFAULT_PROFILE):
    """Work-unit body of one texture-path variant."""

    def run() -> dict:
        profile = get_profile(device_profile)
        device = Device(spec=profile.spec, seed=1, fault_plan=fault_plan,
                        timing=profile.create_timing_model())
        data = DeviceProblemData(device, instance)
        seqs = device.malloc((total_threads, n), np.int32, "sequences")
        out = device.malloc(total_threads, np.float64, "fitness")
        rng = np.random.default_rng(7)
        device.memcpy_htod(
            seqs,
            np.argsort(rng.random((total_threads, n)), axis=1).astype(np.int32),
        )
        kernel = make_cdd_fitness_kernel(use_texture)
        cfg = linear_config(total_threads, 192)
        device.reset_clocks()
        device.launch(kernel, cfg, seqs, data.p, data.a, data.b, out)
        device.synchronize()
        return {"use_texture": use_texture,
                "kernel_time_s": float(device.profiler.kernel_time())}

    return run


def run_texture_ablation(
    scale: ExperimentScale | None = None,
    total_threads: int = 768,
    runner: ResilientRunner | None = None,
    device_profile: str = DEFAULT_PROFILE,
) -> TextureAblation:
    """Compare the modeled fitness-kernel time with the texture path on."""
    scale = scale or get_scale()
    runner = runner or ResilientRunner()
    get_profile(device_profile)  # fail fast on unknown keys
    n = scale.fig11_n
    instance = biskup_instance(n, 0.4, 1)
    units = [
        WorkUnit(
            key="texture" if use_texture else "plain",
            run=_texture_point_fn(instance, n, use_texture, total_threads,
                                  runner.fault_plan, device_profile),
        )
        for use_texture in (False, True)
    ]
    suffix = "" if device_profile == DEFAULT_PROFILE else f"_{device_profile}"
    checkpoint = runner.checkpoint_for(
        f"ablation_texture_{scale.name}{suffix}"
    )
    report = runner.run_units(units, checkpoint)

    times = {o.payload["use_texture"]: o.payload["kernel_time_s"]
             for o in report.completed}
    return TextureAblation(
        n_jobs=n,
        plain_s=times.get(False, float("nan")),
        texture_s=times.get(True, float("nan")),
        report=report,
    )


# ----------------------------------------------------------------------
# DPSO coupling (async per the paper vs coupled-swarm extension)
# ----------------------------------------------------------------------
@dataclass
class CouplingAblation:
    """Final quality of the DPSO coupling spectrum (async/ring/coupled)."""

    sizes: tuple[int, ...]
    async_objective: np.ndarray
    ring_objective: np.ndarray
    coupled_objective: np.ndarray
    report: RunReport | None = None

    def render(self) -> str:
        """Comparison table; the async deficit is the paper's DPSO story."""
        rows = [
            [
                n,
                self.async_objective[i],
                self.ring_objective[i],
                self.coupled_objective[i],
                100.0
                * (self.async_objective[i] - self.coupled_objective[i])
                / self.coupled_objective[i],
            ]
            for i, n in enumerate(self.sizes)
        ]
        tab = render_table(
            ["Jobs", "async (paper)", "ring (lbest)", "coupled (gbest)",
             "async worse by %"],
            rows,
            title="DPSO coupling ablation (equal budgets)",
        )
        footnote = _ablation_footnote(self.report)
        return f"{tab}\n\n{footnote}" if footnote else tab


def _coupling_point_fn(n: int, coupling: str, replicates: int,
                       scale: ExperimentScale, engine):
    """Work-unit body: one DPSO coupling's replicate mean at one size."""

    def run() -> dict:
        from repro.core.parallel_dpso import ParallelDPSOConfig, parallel_dpso

        instance = biskup_instance(n, 0.4, 1)
        vals = []
        for r in range(replicates):
            seed = zlib.crc32(f"coupling:{n}:{r}".encode()) & 0x7FFFFFFF
            vals.append(
                parallel_dpso(
                    instance,
                    ParallelDPSOConfig(
                        iterations=scale.iterations_low,
                        grid_size=scale.grid_size,
                        block_size=scale.block_size,
                        coupling=coupling,
                        seed=seed,
                    ),
                    **engine,
                ).objective
            )
        return {"size": n, "coupling": coupling,
                "objective": float(np.mean(vals))}

    return run


def run_coupling_ablation(
    scale: ExperimentScale | None = None,
    replicates: int = 2,
    runner: ResilientRunner | None = None,
) -> CouplingAblation:
    """The DPSO coupling spectrum: isolated (paper) / ring / full swarm."""
    scale = scale or get_scale()
    runner = runner or ResilientRunner()
    sizes = scale.sizes[: min(4, len(scale.sizes))]
    couplings = ("async", "ring", "coupled")
    engine = runner.solver_engine(prefer="vectorized")
    units = [
        WorkUnit(
            key=f"n{n}|{coupling}",
            run=_coupling_point_fn(n, coupling, replicates, scale, engine),
        )
        for n in sizes
        for coupling in couplings
    ]
    checkpoint = runner.checkpoint_for(f"ablation_coupling_{scale.name}")
    report = runner.run_units(units, checkpoint)

    objs = {
        (o.payload["size"], o.payload["coupling"]): o.payload["objective"]
        for o in report.completed
    }
    series = {
        c: np.array([objs.get((n, c), np.nan) for n in sizes])
        for c in couplings
    }
    return CouplingAblation(
        sizes=tuple(sizes),
        async_objective=series["async"],
        ring_objective=series["ring"],
        coupled_objective=series["coupled"],
        report=report,
    )


# ----------------------------------------------------------------------
# Perturbation-position refresh cadence
# ----------------------------------------------------------------------
@dataclass
class RefreshAblation:
    """Final SA quality per position-refresh interval."""

    n_jobs: int
    intervals: tuple[int, ...]
    objective: np.ndarray
    report: RunReport | None = None

    def render(self) -> str:
        """Quality per refresh interval (1 = fresh positions each move)."""
        rows = [
            [itv, self.objective[i]] for i, itv in enumerate(self.intervals)
        ]
        tab = render_table(
            ["refresh interval", "mean objective"],
            rows,
            title=(
                f"Perturbation-position refresh ablation (CDD "
                f"n={self.n_jobs}; Section VI's ambiguous '10')"
            ),
        )
        footnote = _ablation_footnote(self.report)
        return f"{tab}\n\n{footnote}" if footnote else tab


def _refresh_point_fn(instance, itv: int, replicates: int,
                      scale: ExperimentScale, engine):
    """Work-unit body of one refresh-interval point."""

    def run() -> dict:
        vals = []
        for r in range(replicates):
            seed = zlib.crc32(f"refresh:{itv}:{r}".encode()) & 0x7FFFFFFF
            vals.append(
                parallel_sa(
                    instance,
                    ParallelSAConfig(
                        iterations=scale.iterations_low,
                        grid_size=scale.grid_size,
                        block_size=scale.block_size,
                        position_refresh=itv,
                        seed=seed,
                    ),
                    **engine,
                ).objective
            )
        return {"interval": itv, "objective": float(np.mean(vals))}

    return run


def run_refresh_ablation(
    scale: ExperimentScale | None = None,
    intervals: tuple[int, ...] = (1, 2, 5, 10, 25),
    replicates: int = 2,
    runner: ResilientRunner | None = None,
) -> RefreshAblation:
    """Sweep the refresh cadence of the SA perturbation positions."""
    scale = scale or get_scale()
    runner = runner or ResilientRunner()
    n = scale.fig11_n
    instance = biskup_instance(n, 0.4, 1)
    engine = runner.solver_engine(prefer="vectorized")
    units = [
        WorkUnit(
            key=f"interval{itv}",
            run=_refresh_point_fn(instance, itv, replicates, scale, engine),
        )
        for itv in intervals
    ]
    checkpoint = runner.checkpoint_for(f"ablation_refresh_{scale.name}")
    report = runner.run_units(units, checkpoint)

    by_itv = {o.payload["interval"]: o.payload["objective"]
              for o in report.completed}
    objs = np.array([by_itv.get(itv, np.nan) for itv in intervals])
    return RefreshAblation(n_jobs=n, intervals=intervals, objective=objs,
                           report=report)


# ----------------------------------------------------------------------
# Parallelization strategy (Section V: the three Ferreiro strategies)
# ----------------------------------------------------------------------
@dataclass
class StrategyAblation:
    """Final quality of the three SA parallelization strategies."""

    sizes: tuple[int, ...]
    async_objective: np.ndarray
    sync_objective: np.ndarray
    domain_objective: np.ndarray
    report: RunReport | None = None

    def render(self) -> str:
        """Per-size comparison; the paper keeps async and dismisses the rest."""
        rows = []
        for i, n in enumerate(self.sizes):
            a = self.async_objective[i]
            rows.append([
                n, a, self.sync_objective[i], self.domain_objective[i],
                100.0 * (self.domain_objective[i] - a) / a,
            ])
        tab = render_table(
            ["Jobs", "async (paper)", "sync", "domain decomp.",
             "domain vs async %"],
            rows,
            title=(
                "Parallelization-strategy ablation (Section V): multiple "
                "Markov chains vs domain decomposition"
            ),
        )
        footnote = _ablation_footnote(self.report)
        return f"{tab}\n\n{footnote}" if footnote else tab


def _strategy_point_fn(n: int, variant: str, replicates: int,
                       scale: ExperimentScale, engine):
    """Work-unit body: one parallelization strategy at one size."""

    def run() -> dict:
        instance = biskup_instance(n, 0.4, 1)
        vals = []
        for r in range(replicates):
            seed = zlib.crc32(
                f"strategy:{variant}:{n}:{r}".encode()
            ) & 0x7FFFFFFF
            vals.append(
                parallel_sa(
                    instance,
                    ParallelSAConfig(
                        iterations=scale.iterations_low,
                        grid_size=scale.grid_size,
                        block_size=scale.block_size,
                        variant=variant,
                        seed=seed,
                    ),
                    **engine,
                ).objective
            )
        return {"size": n, "variant": variant,
                "objective": float(np.mean(vals))}

    return run


def run_strategy_ablation(
    scale: ExperimentScale | None = None,
    replicates: int = 2,
    runner: ResilientRunner | None = None,
) -> StrategyAblation:
    """Async vs sync vs domain-decomposition parallel SA at equal budgets."""
    scale = scale or get_scale()
    runner = runner or ResilientRunner()
    sizes = tuple(n for n in scale.sizes if n >= 3)[: min(4, len(scale.sizes))]
    variants = ("async", "sync", "domain")
    engine = runner.solver_engine(prefer="vectorized")
    units = [
        WorkUnit(
            key=f"n{n}|{variant}",
            run=_strategy_point_fn(n, variant, replicates, scale, engine),
        )
        for n in sizes
        for variant in variants
    ]
    checkpoint = runner.checkpoint_for(f"ablation_strategy_{scale.name}")
    report = runner.run_units(units, checkpoint)

    objs = {
        (o.payload["size"], o.payload["variant"]): o.payload["objective"]
        for o in report.completed
    }
    series = {
        v: np.array([objs.get((n, v), np.nan) for n in sizes])
        for v in variants
    }
    return StrategyAblation(
        sizes=sizes,
        async_objective=series["async"],
        sync_objective=series["sync"],
        domain_objective=series["domain"],
        report=report,
    )
