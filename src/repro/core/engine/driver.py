"""The shared generation-loop driver behind the ensemble metaheuristics.

Both parallel drivers (SA and DPSO) follow the exact host program of the
paper's Figure 9: stage the instance, allocate device state, upload the
initial population, run ``iterations`` generations of kernel launches with
a host synchronize per generation, then transfer the elitist best back and
reconstruct its schedule.  :func:`run_ensemble` owns that skeleton --
device setup, the generation loop, history recording, the two host<->device
transfers and result assembly -- while an :class:`EnsembleStrategy` object
contributes only what differs between algorithms: which buffers and kernels
exist and what one generation launches.

The call order against the backend is kept exactly as the original
hand-written drivers performed it, because on the gpusim backend every
launch/transfer charges modeled time and every RNG-consuming kernel
advances the shared counter stream: preserving the order preserves both
the modeled timings and the search trajectory bit-for-bit.

:func:`assemble_result` is the one place a best sequence becomes a
:class:`~repro.core.results.SolveResult`; the serial baselines use it too.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from repro.core.engine.adapters import ProblemAdapter, adapter_for
from repro.core.engine.backends import ExecutionBackend, create_backend
from repro.core.engine.placement import LOCAL, Placement, resolve_placement
from repro.core.results import SolveResult
from repro.gpusim.launch import Dim3, LaunchConfig
from repro.initialization import initial_population
from repro.problems.validation import validate_schedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.problems.cdd import CDDInstance
    from repro.problems.ucddcp import UCDDCPInstance

__all__ = [
    "EnsembleStrategy",
    "Trajectory",
    "run_generations",
    "run_ensemble",
    "assemble_result",
]


def assemble_result(
    adapter: ProblemAdapter,
    best_sequence: np.ndarray,
    *,
    evaluations: int,
    wall_time_s: float,
    history: np.ndarray | None = None,
    params: dict[str, Any] | None = None,
    **timing: float,
) -> SolveResult:
    """Reconstruct the best sequence's schedule and build the result."""
    schedule = adapter.reconstruct(best_sequence)
    return SolveResult(
        schedule=schedule,
        objective=schedule.objective,
        best_sequence=np.asarray(best_sequence),
        evaluations=evaluations,
        wall_time_s=wall_time_s,
        history=history,
        params=params if params is not None else {},
        **timing,
    )


class EnsembleStrategy(ABC):
    """What one parallel metaheuristic contributes to the shared loop.

    The driver calls the hooks in a fixed order (matching Figure 9):
    ``prepare`` (host-side, may consume the host RNG for e.g. the T0
    estimate), ``allocate`` (buffers + kernels; must set :attr:`seqs`,
    :attr:`best_seq`, :attr:`best_energy`), ``prepare_population``,
    ``initialize`` (first evaluation + elitism seed), then ``generation``
    once per iteration, and finally ``finalize`` on the downloaded best.
    """

    #: Population buffer the initial sequences are uploaded into.
    seqs: Any
    #: Buffer holding the elitist best sequence (downloaded at the end).
    best_seq: Any
    #: One-element buffer of the elitist best energy (history source).
    best_energy: Any

    def __init__(self, config: Any) -> None:
        self.config = config

    @property
    @abstractmethod
    def algorithm(self) -> str:
        """Label recorded in ``params['algorithm']``."""

    @property
    def shardable(self) -> bool:
        """Whether chains evolve independently (no cross-chain kernel reads).

        A sharded placement may split a shardable ensemble into
        contiguous per-worker slices; an unshardable one (e.g. a variant
        that broadcasts state across the whole ensemble each generation)
        runs whole in a single worker.  See docs/parallel.md.
        """
        return True

    def prepare(
        self, adapter: ProblemAdapter, host_rng: np.random.Generator
    ) -> None:
        """Host-side setup before the wall clock starts (default: none)."""

    @abstractmethod
    def allocate(
        self,
        backend: ExecutionBackend,
        adapter: ProblemAdapter,
        cfg: LaunchConfig,
    ) -> None:
        """Allocate device state and build the kernel set."""

    def prepare_population(self, init_seqs: np.ndarray) -> np.ndarray:
        """Adjust the initial population before upload (default: none)."""
        return init_seqs

    @abstractmethod
    def initialize(self, backend: ExecutionBackend, cfg: LaunchConfig) -> None:
        """Evaluate the initial population and seed the elitist best."""

    @abstractmethod
    def generation(
        self, backend: ExecutionBackend, cfg: LaunchConfig, it: int
    ) -> None:
        """Launch one generation's kernel pipeline (no synchronize)."""

    def finalize(self, final_seq: np.ndarray) -> tuple[np.ndarray, int]:
        """Post-process the downloaded best; returns (sequence, extra
        objective evaluations performed)."""
        return final_seq, 0

    def params(self) -> dict[str, Any]:
        """Algorithm-specific entries of ``SolveResult.params``."""
        return {"algorithm": self.algorithm}


class Trajectory(NamedTuple):
    """The elitist outcome of a generation loop (one shard's, or the
    merged ensemble's).

    ``ext_history`` has ``iterations + 1`` entries: entry 0 is the running
    best right after ``initialize``, entry ``k`` the running best after
    generation ``k - 1``.  The extra leading entry lets a shard merge
    distinguish a best reached by the initial population from one reached
    in generation 0 — both would show the same value at history index 0.
    """

    best_seq: np.ndarray
    best_energy: float
    ext_history: np.ndarray


def run_generations(
    strategy: EnsembleStrategy,
    backend: ExecutionBackend,
    adapter: ProblemAdapter,
    init_seqs: np.ndarray,
) -> Trajectory:
    """Run every generation on an opened ``backend``: the local path
    and every shard (:func:`repro.pool.worker.run_shard`) share this."""
    config = strategy.config
    cfg = LaunchConfig(
        grid=Dim3(x=config.grid_size), block=Dim3(x=config.block_size)
    )
    strategy.allocate(backend, adapter, cfg)
    backend.upload(strategy.seqs, init_seqs)
    strategy.initialize(backend, cfg)

    ext_history = np.empty(config.iterations + 1)
    ext_history[0] = strategy.best_energy.array[0]
    for it in range(config.iterations):
        strategy.generation(backend, cfg, it)
        backend.synchronize()
        ext_history[it + 1] = strategy.best_energy.array[0]

    backend.synchronize()
    return Trajectory(
        backend.download(strategy.best_seq).astype(np.intp),
        float(backend.download(strategy.best_energy)[0]),
        ext_history,
    )


def run_ensemble(
    instance: "CDDInstance | UCDDCPInstance",
    strategy: EnsembleStrategy,
    backend: str | ExecutionBackend = "gpusim",
    placement: Placement | None = None,
) -> SolveResult:
    """Run ``strategy`` on ``instance`` over a backend and a placement
    (``None``: resolved from the ``backend=`` name).  Sharded placements
    run the generations in :func:`repro.pool.sharding.run_sharded`."""
    config = strategy.config
    if placement is None:
        backend, placement = resolve_placement(backend)
    exec_backend = create_backend(backend)
    local = placement.kind == LOCAL
    adapter = adapter_for(instance)
    host_rng = np.random.default_rng(config.seed)
    strategy.prepare(adapter, host_rng)

    device_spec = config.resolve_device_spec()
    start_wall = time.perf_counter()
    init_seqs = initial_population(
        instance, config.population, host_rng, config.init
    ).astype(np.int32)
    init_seqs = strategy.prepare_population(init_seqs)
    if local:
        exec_backend.open(
            adapter, seed=config.seed, device_spec=device_spec,
            timing=config.resolve_timing_model(),
        )
        outcome = run_generations(strategy, exec_backend, adapter, init_seqs)
        where = {"backend": exec_backend.name}
    else:
        from repro.pool.sharding import run_sharded

        outcome, where = run_sharded(
            instance, strategy, placement, init_seqs,
            exec_backend.fault_plan,
        )
    final_seq, extra_evals = strategy.finalize(outcome.best_seq)
    wall = time.perf_counter() - start_wall

    params = strategy.params()
    params["device_spec"] = device_spec.name
    params["device_profile"] = (
        None if config.device_spec is not None else config.device_profile
    )
    params.update(where)
    result = assemble_result(
        adapter,
        final_seq,
        evaluations=(config.iterations + 1) * config.population + extra_evals,
        wall_time_s=wall,
        history=outcome.ext_history[1:] if config.record_history else None,
        params=params,
        **(exec_backend.timing_fields() if local else {}),
    )
    if not local:
        # Defense in depth: shard payloads already passed the transport
        # digest; re-validate the merged solution with the independent
        # checker so a corrupted-but-well-formed payload cannot become a
        # silently wrong answer (a violation raises ScheduleError here).
        validate_schedule(instance, result.schedule)
    return result
