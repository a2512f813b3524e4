"""Module-level worker entry points (spawn-safe, picklable payloads).

Everything a worker process needs travels as picklable values: the problem
instance (a frozen dataclass of arrays), the strategy *class*, its config
dataclass, and plain integers.  The worker rebuilds adapter/strategy/kernels
locally, so no live kernel closures or backend state ever cross the process
boundary.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.engine.adapters import adapter_for
from repro.core.engine.backends import VectorizedBackend
from repro.core.engine.driver import Trajectory, run_generations

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine.driver import EnsembleStrategy
    from repro.problems.cdd import CDDInstance
    from repro.problems.ucddcp import UCDDCPInstance
    from repro.resilience.faults import FaultPlan

__all__ = ["run_shard", "solve_one", "solve_chunk"]


def run_shard(
    instance: "CDDInstance | UCDDCPInstance",
    strategy_cls: "type[EnsembleStrategy]",
    config: Any,
    row_offset: int,
    nblocks: int,
    init_rows: np.ndarray,
    fault_plan: "FaultPlan | None" = None,
) -> Trajectory:
    """Run blocks ``[row_offset/block_size, ...)`` of the global ensemble.

    Runs :func:`repro.core.engine.driver.run_generations` for one
    contiguous slice of chains on a :class:`VectorizedBackend` whose RNG is
    offset by ``row_offset`` — so every chain draws exactly the stream it
    would have drawn in the unsharded run.  The parent has already applied
    ``prepare_population`` (it indexes by *global* row), so ``init_rows``
    is uploaded as-is; ``finalize`` is also the parent's job (it runs on
    the merged best only).
    """
    adapter = adapter_for(instance)
    strategy = strategy_cls(dataclasses.replace(config, grid_size=nblocks))
    # Same seed, same consumption order as the unsharded run: ``prepare``
    # draws (e.g. the T0 estimate) before the population would be drawn, so
    # replaying it here reproduces the exact host-derived state.
    strategy.prepare(adapter, np.random.default_rng(config.seed))

    backend = VectorizedBackend(fault_plan=fault_plan, thread_offset=row_offset)
    backend.open(
        adapter, seed=config.seed, device_spec=config.resolve_device_spec()
    )
    return run_generations(
        strategy, backend, adapter, np.ascontiguousarray(init_rows)
    )


def solve_one(
    instance: "CDDInstance | UCDDCPInstance", method: str, kwargs: dict
) -> Any:
    """One full façade solve — the ``solve_many`` task body."""
    from repro.core.solver import solver_for

    return solver_for(instance).solve(method, **kwargs)


def solve_chunk(
    instances: "list", method: str, kwargs: dict
) -> list[tuple[str, Any]]:
    """Several façade solves in one worker process (chunked dispatch).

    Small instances solve in milliseconds, so forking a process and
    pickling an instance per solve dominates the batch wall time;
    :func:`repro.pool.batch.solve_many` with ``chunk_size`` packs
    consecutive small instances into one task to amortize that overhead.
    Error isolation stays per instance: each solve runs under its own
    ``try``, returning ``("ok", result)`` or ``("error", exception)`` in
    input order — one bad instance never takes down its chunk-mates.
    Determinism is untouched: each solve seeds from its config exactly
    as the unchunked path does.
    """
    out: list[tuple[str, Any]] = []
    for instance in instances:
        try:
            out.append(("ok", solve_one(instance, method, dict(kwargs))))
        except Exception as exc:  # noqa: BLE001 - errors travel as values
            out.append(("error", exc))
    return out
