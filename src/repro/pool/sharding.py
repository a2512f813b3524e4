"""Bit-identical ensemble sharding — the engine of every sharded placement.

The chain ensemble of :func:`repro.core.engine.driver.run_ensemble` is
embarrassingly parallel whenever no kernel reads another chain's state:
chain ``t``'s trajectory depends only on its initial sequence and its RNG
stream, and the stream depends only on ``(seed, t, draw_round)`` — never on
how many chains run alongside it (see :class:`repro.gpusim.rng.DeviceRNG`).
Sharding therefore splits the grid into contiguous block ranges, runs each
range in a worker process on a :class:`VectorizedBackend` whose RNG is
offset by the shard's first global row, and merges.

**Determinism contract** (asserted in ``tests/test_pool.py``, explained in
docs/parallel.md): for a fixed seed the merged best energy, best sequence
and history are bit-identical to the unsharded ``vectorized``/``gpusim``
run, for any worker count.  The merge reproduces the elitist reduction's
tie-breaks exactly: the reduction only overwrites on a *strict* energy
improvement and breaks within-round ties by lowest thread index, so the
global winner is the shard whose best energy is lowest, reached in the
earliest round, from the lowest shard index (shards are ascending block
ranges, so the lowest tied shard contains the lowest tied global thread).

Strategies whose kernels *do* couple chains opt out via
``EnsembleStrategy.shardable`` (the sync-SA broadcast and the ring/coupled
DPSO couplings read across chains); they fall back to one shard — the
whole ensemble in a single worker process, still trajectory-identical,
just without intra-solve parallelism.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from repro.core.engine.driver import Trajectory
from repro.core.engine.placement import HOSTS, Placement
from repro.pool.errors import AllHostsLostError
from repro.pool.executor import ProcessPool, default_workers
from repro.pool.worker import run_shard

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine.driver import EnsembleStrategy
    from repro.problems.cdd import CDDInstance
    from repro.problems.ucddcp import UCDDCPInstance
    from repro.resilience.faults import FaultPlan

__all__ = [
    "ShardPlan",
    "plan_shards",
    "run_sharded",
]


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """Contiguous block ranges: shard ``i`` runs ``blocks[i]`` blocks
    starting at global row ``row_offsets[i]``."""

    row_offsets: tuple[int, ...]
    blocks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.blocks)


def plan_shards(
    grid_size: int,
    block_size: int,
    workers: int | None,
    shardable: bool = True,
    algorithm: str = "",
) -> ShardPlan:
    """Split ``grid_size`` blocks into at most ``workers`` contiguous shards.

    Sharding granularity is whole blocks (a block is the natural CUDA unit
    and keeps shard populations multiples of ``block_size``).  An
    unshardable strategy degrades to one shard with a ``RuntimeWarning``
    when the caller explicitly asked for more.
    """
    if not shardable:
        if workers is not None and workers > 1:
            warnings.warn(
                f"{algorithm or 'this strategy'} couples chains across the "
                "ensemble and cannot be sharded; running the whole ensemble "
                "in one worker process",
                RuntimeWarning,
                stacklevel=3,
            )
        nshards = 1
    else:
        nshards = min(
            workers if workers is not None else default_workers(cap=grid_size),
            grid_size,
        )
    base, extra = divmod(grid_size, nshards)
    blocks = tuple(base + (1 if i < extra else 0) for i in range(nshards))
    offsets, acc = [], 0
    for b in blocks:
        offsets.append(acc * block_size)
        acc += b
    return ShardPlan(row_offsets=tuple(offsets), blocks=blocks)


def _build_shard_tasks(
    instance: "CDDInstance | UCDDCPInstance",
    strategy: "EnsembleStrategy",
    plan: ShardPlan,
    init_seqs: np.ndarray,
    fault_plan: Any,
) -> tuple[list[tuple[Callable[..., Any], tuple]], list[str]]:
    """Spawn-safe shard tasks (and their labels) for any pool transport."""
    config = strategy.config
    tasks: list[tuple[Callable[..., Any], tuple]] = []
    for lo, nblocks in zip(plan.row_offsets, plan.blocks):
        rows = init_seqs[lo : lo + nblocks * config.block_size]
        tasks.append(
            (
                run_shard,
                (instance, type(strategy), config, lo, nblocks, rows,
                 fault_plan),
            )
        )
    labels = [f"{instance.name}:shard{i}" for i in range(len(tasks))]
    return tasks, labels


def _collect_shards(
    shards: list[Trajectory | None],
    outcomes: Iterator[tuple[int, str, Any]],
    indices: Sequence[int] | None = None,
) -> None:
    """Fill ``shards`` from an ``imap_unordered`` stream.

    ``indices`` maps the stream's local task indices back to global shard
    indices (used when a fallback pool re-runs only the unfinished ones).
    """
    for index, status, value in outcomes:
        if status == "interrupt":
            raise KeyboardInterrupt
        if status == "error":
            raise value
        shards[indices[index] if indices is not None else index] = value


def _merge_shards(results: Sequence[Trajectory]) -> Trajectory:
    """Merge shard results bit-identically to the elitist reduction.

    Reproduces the reduction's tie-breaks (strict improvement, earliest
    round, lowest global thread index): the winner is the shard with the
    lowest best energy, reached in the earliest round, from the lowest
    shard index — shards are ascending block ranges, so the lowest tied
    shard contains the lowest tied global thread.  Identical regardless
    of which transport (local pool or remote hosts) ran the shards.
    """

    def first_round(shard: Trajectory) -> int:
        return int(np.nonzero(shard.ext_history == shard.best_energy)[0][0])

    winner = min(
        range(len(results)),
        key=lambda i: (results[i].best_energy, first_round(results[i]), i),
    )
    merged_ext = results[0].ext_history.copy()
    for shard in results[1:]:
        np.minimum(merged_ext, shard.ext_history, out=merged_ext)
    return results[winner]._replace(ext_history=merged_ext)


def run_sharded(
    instance: "CDDInstance | UCDDCPInstance",
    strategy: "EnsembleStrategy",
    placement: Placement,
    init_seqs: np.ndarray,
    fault_plan: "FaultPlan | None" = None,
) -> tuple[Trajectory, dict[str, Any]]:
    """Run an ensemble's generations sharded across ``placement``'s pool,
    with ``fault_plan`` armed in every shard; the merged trajectory and
    the placement's ``SolveResult.params`` entries.

    The caller (:func:`repro.core.engine.driver.run_ensemble`) owns the
    host RNG, the initial population ``init_seqs`` and ``finalize``.  The
    plan depends only on ``placement.workers``, so ``hosts`` solves are
    bit-identical to ``processes`` ones with the same total.
    """
    config = strategy.config
    plan = plan_shards(
        config.grid_size,
        config.block_size,
        placement.workers,
        shardable=strategy.shardable,
        algorithm=strategy.algorithm,
    )
    tasks, labels = _build_shard_tasks(
        instance, strategy, plan, init_seqs, fault_plan
    )
    shards: list[Trajectory | None] = [None] * len(tasks)
    pending: Sequence[int] = range(len(tasks))
    workers, pool_kwargs = len(tasks), placement.pool_kwargs()
    if placement.kind == HOSTS:
        # Whatever the hosts could not finish re-runs on a plain local
        # pool (empty unless every host was lost and local_fallback).
        pending = _run_on_hosts(shards, tasks, labels, placement)
        workers, pool_kwargs = min(len(pending), default_workers()), {}
    if pending:
        pool = ProcessPool(
            workers=workers, context=placement.context, **pool_kwargs
        )
        _collect_shards(
            shards,
            pool.imap_unordered(
                [tasks[i] for i in pending],
                labels=[labels[i] for i in pending],
            ),
            indices=pending,
        )
    results = [s for s in shards if s is not None]
    assert len(results) == len(tasks)
    return _merge_shards(results), placement.result_params(len(results))


def _run_on_hosts(
    shards: list[Trajectory | None],
    tasks: list[tuple[Callable[..., Any], tuple]],
    labels: list[str],
    placement: Placement,
) -> list[int]:
    """Fill ``shards`` from remote agents; the indices left unfinished
    when every host is lost and ``local_fallback`` is on."""
    from repro.pool.hosts import HostPool

    host_pool = HostPool(placement.hosts, **placement.pool_kwargs())
    try:
        _collect_shards(
            shards, host_pool.imap_unordered(tasks, labels=labels)
        )
    except AllHostsLostError as exc:
        if not placement.local_fallback:
            raise
        remaining = [i for i, s in enumerate(shards) if s is None]
        warnings.warn(
            f"{exc}; degrading to the local multiprocess pool for the "
            f"{len(remaining)} unfinished shard(s) — results are "
            "unaffected (shard re-runs are bit-identical)",
            RuntimeWarning,
            stacklevel=3,
        )
        return remaining
    return []
