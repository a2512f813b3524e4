"""GPU-parallel Discrete PSO (Section VII of the paper).

"The parallel implementation of the DPSO algorithm on the GPU is carried
out in the asynchronous manner, as explained for the SA": like the
asynchronous SA, every CUDA thread evolves *independently* -- one particle
per thread whose cognitive and social attractors are its own best position
-- and the reduction selects the overall best only at the end.  This is the
``coupling="async"`` default, and it reproduces the paper's observation that
DPSO deteriorates badly as the job count grows (an isolated particle only
intensifies around its own history).

As extensions, ``coupling="coupled"`` turns the ensemble into a genuine
single swarm (the per-generation reduction feeds the swarm best ``g(t)``
into every thread's two-point crossover), and ``coupling="ring"`` is the
classic lbest topology in between: thread ``t``'s social attractor is the
best personal-best among its ring neighbours ``{t-1, t, t+1}`` -- locality
that a real CUDA kernel gets almost for free from adjacent threads.  The
ablation bench contrasts the couplings (information flow is what rescues
DPSO at large ``n``).

Per-generation kernel pipeline (both modes):

    update (F1/F2/F3 with per-thread cuRAND gates) -> fitness ->
    pbest update -> reduction

The host program (data staging, constant memory, modeled timing, the two
host<->device transfers) is the shared ensemble driver of
:func:`repro.core.engine.driver.run_ensemble`; this module contributes only
the DPSO state and kernels, and ``backend`` selects the execution backend
exactly as for the SA.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.engine.adapters import ProblemAdapter
from repro.core.engine.backends import ExecutionBackend
from repro.core.engine.config import (
    DeviceSelectionMixin,
    EnsembleGeometryMixin,
    check_choice,
    check_init_policy,
    check_probabilities,
)
from repro.core.engine.driver import EnsembleStrategy, run_ensemble
from repro.core.engine.placement import Placement
from repro.core.results import SolveResult
from repro.gpusim.device import DeviceSpec
from repro.gpusim.profiles import DEFAULT_PROFILE
from repro.gpusim.kernel import Kernel, KernelCost, ThreadContext, kernel
from repro.gpusim.launch import LaunchConfig
from repro.kernels.reduction_kernel import make_elitist_reduction_kernel
from repro.permutation import (
    batched_one_point_crossover,
    batched_random_swap,
    batched_two_point_crossover,
)
from repro.problems.cdd import CDDInstance
from repro.problems.ucddcp import UCDDCPInstance
from repro.seqopt import native

__all__ = ["ParallelDPSOConfig", "ParallelDPSOStrategy", "parallel_dpso"]


@dataclass(frozen=True)
class ParallelDPSOConfig(EnsembleGeometryMixin, DeviceSelectionMixin):
    """Configuration of the parallel DPSO (one particle per thread)."""

    iterations: int = 1000
    grid_size: int = 4
    block_size: int = 192
    w: float = 0.9
    c1: float = 0.8
    c2: float = 0.8
    coupling: str = "async"  # "async" (paper) | "ring" | "coupled"
    seed: int = 0
    record_history: bool = False
    # Initial population policy: "random" (paper default) or "vshape".
    init: str = "random"
    # Route read-only gathers in the fitness kernel through the modeled
    # texture cache (the paper's future-work item).
    use_texture: bool = False
    # Modeled device: a registered profile name, or an explicit spec
    # (e.g. a with_overrides copy) that takes precedence when set.
    device_profile: str = DEFAULT_PROFILE
    device_spec: DeviceSpec | None = field(default=None)

    def __post_init__(self) -> None:
        self._check_geometry()
        self._check_device()
        check_probabilities(self, "w", "c1", "c2")
        check_choice("coupling", self.coupling, ("async", "ring", "coupled"))
        check_init_policy(self.init)


def _make_update_kernel(w: float, c1: float, c2: float, coupling: str) -> Kernel:
    """The position-update kernel applying Eq. (3) per thread.

    The social attractor depends on the coupling: the thread's own best
    ("async", an isolated swarm of one, matching the SA-style asynchronous
    parallelization), the best personal-best among the thread's ring
    neighbours ("ring", lbest topology), or the reduced swarm best
    ("coupled").  The attractor is chosen in NumPy; the three operators
    then run as the compiled rows of :mod:`repro.seqopt.native` when they
    are loaded, else as the batched NumPy operators (the reference).
    """

    def _cost(ctx: ThreadContext, seqs, pbest, pbest_fit, gbest) -> KernelCost:
        n = seqs.array.shape[1]
        # Three gated operators; each crossover builds two permutation-rank
        # tables and performs data-dependent scattered reads/writes over the
        # whole sequence -- on the modeled Fermi part this costs several
        # times the (streaming) fitness pass.  The constant is calibrated so
        # that a DPSO generation is ~4.5x an SA generation, which is the
        # ratio implied by the paper's Table III (SA_1000 speedup 111 vs
        # DPSO_1000 speedup 24.6 against the same CPU reference at n=1000).
        return KernelCost(
            cycles_per_thread=400.0 + 3900.0 * n,
            global_bytes_per_thread=10 * 4.0 * n,
        )

    @kernel("dpso_update", registers=40, cost=_cost)
    def dpso_update(ctx: ThreadContext, seqs, pbest, pbest_fit, gbest) -> None:
        """Apply ``c2 (+) F3(c1 (+) F2(w (+) F1(x), pbest), gbest)``."""
        s = ctx.total_threads
        rng = ctx.rng
        x = seqs.array[:s]
        if coupling == "coupled":
            g = gbest.array
        elif coupling == "ring":
            # lbest: the best pbest among ring neighbours {t-1, t, t+1}.
            fit = pbest_fit.array[:s]
            left = np.roll(np.arange(s), 1)
            right = np.roll(np.arange(s), -1)
            stacked = np.stack((fit[left], fit, fit[right]))
            choice = np.argmin(stacked, axis=0)
            neighbour = np.where(
                choice == 0, left, np.where(choice == 1, np.arange(s), right)
            )
            g = pbest.array[:s][neighbour]
        else:
            g = pbest.array[:s]
        if native.dpso_update_rows(rng, x, pbest.array[:s], g, w, c1, c2):
            return
        tids = ctx.thread_ids
        mask_w = rng.uniform(tids) < w
        x = batched_random_swap(rng, tids, x, mask_w)
        mask_c1 = rng.uniform(tids) < c1
        x = batched_one_point_crossover(rng, tids, x, pbest.array[:s], mask_c1)
        mask_c2 = rng.uniform(tids) < c2
        g = np.broadcast_to(g, x.shape)
        x = batched_two_point_crossover(rng, tids, x, g, mask_c2)
        seqs.array[:s] = x

    return dpso_update


def _make_pbest_kernel() -> Kernel:
    """Per-thread personal-best update kernel."""

    def _cost(ctx: ThreadContext, seqs, fitness, pbest, pbest_fit) -> KernelCost:
        n = seqs.array.shape[1]
        return KernelCost(
            cycles_per_thread=30.0 + 4.0 * n,
            global_bytes_per_thread=2 * 8.0 + 2 * 4.0 * n,
        )

    @kernel("dpso_pbest", registers=16, cost=_cost)
    def dpso_pbest(ctx: ThreadContext, seqs, fitness, pbest, pbest_fit) -> None:
        """``pbest[t] = seqs[t]`` where the new fitness improves."""
        s = ctx.total_threads
        better = fitness.array[:s] < pbest_fit.array[:s]
        pbest.array[:s][better] = seqs.array[:s][better]
        pbest_fit.array[:s][better] = fitness.array[:s][better]

    return dpso_pbest


class ParallelDPSOStrategy(EnsembleStrategy):
    """The DPSO-specific half of the ensemble driver.

    One particle per thread; per generation the update/fitness/pbest/
    reduction pipeline of Section VII.  The elitist best buffers double as
    the swarm best (``gbest``) read back at the end.
    """

    config: ParallelDPSOConfig

    algorithm = "parallel_dpso"

    @property
    def shardable(self) -> bool:
        # "ring" reads neighbour pbests across the whole ensemble (the ring
        # wraps over shard boundaries) and "coupled" broadcasts the reduced
        # swarm best; only the paper's asynchronous mode is chain-local.
        return self.config.coupling == "async"

    def allocate(
        self,
        backend: ExecutionBackend,
        adapter: ProblemAdapter,
        cfg: LaunchConfig,
    ) -> None:
        config = self.config
        pop, n = config.population, adapter.n
        self.seqs = backend.alloc((pop, n), np.int32, "particles")
        self.fitness = backend.alloc(pop, np.float64, "fitness")
        self.pbest = backend.alloc((pop, n), np.int32, "pbest")
        self.pbest_fit = backend.alloc(pop, np.float64, "pbest_fitness")
        self.best_seq = backend.alloc(n, np.int32, "gbest")
        self.best_energy = backend.alloc(1, np.float64, "gbest_fitness")
        self.result = backend.alloc(2, np.float64, "reduction_result")

        self.fitness_kernel = adapter.make_fitness_kernel(config.use_texture)
        self.update_kernel = _make_update_kernel(
            config.w, config.c1, config.c2, config.coupling
        )
        self.pbest_kernel = _make_pbest_kernel()
        self.reduction_kernel = make_elitist_reduction_kernel()

    def _launch_fitness(self, backend, cfg) -> None:
        backend.launch(
            self.fitness_kernel, cfg, self.seqs, *backend.fitness_buffers(),
            self.fitness,
        )

    def initialize(self, backend: ExecutionBackend, cfg: LaunchConfig) -> None:
        # Initialization: evaluate, seed pbest; gbest via device-side elitism.
        self.best_energy.array[0] = np.inf
        self._launch_fitness(backend, cfg)
        self.pbest.array[:] = self.seqs.array
        self.pbest_fit.array[:] = self.fitness.array
        backend.launch(
            self.reduction_kernel, cfg, self.pbest_fit, self.pbest,
            self.best_energy, self.best_seq, self.result,
        )

    def generation(
        self, backend: ExecutionBackend, cfg: LaunchConfig, it: int
    ) -> None:
        backend.launch(
            self.update_kernel, cfg, self.seqs, self.pbest, self.pbest_fit,
            self.best_seq,
        )
        self._launch_fitness(backend, cfg)
        backend.launch(
            self.pbest_kernel, cfg, self.seqs, self.fitness, self.pbest,
            self.pbest_fit,
        )
        backend.launch(
            self.reduction_kernel, cfg, self.pbest_fit, self.pbest,
            self.best_energy, self.best_seq, self.result,
        )

    def params(self) -> dict:
        return {"algorithm": self.algorithm, **asdict(self.config)}


def parallel_dpso(
    instance: CDDInstance | UCDDCPInstance,
    config: ParallelDPSOConfig = ParallelDPSOConfig(),
    backend: str | ExecutionBackend = "gpusim",
    placement: Placement | None = None,
) -> SolveResult:
    """Run the GPU-parallel DPSO over the chosen execution backend."""
    return run_ensemble(instance, ParallelDPSOStrategy(config), backend, placement)
