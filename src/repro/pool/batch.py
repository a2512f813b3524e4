"""Batched multi-instance solving: one configuration, many instances.

The benchmark-set workloads (all 280 Biskup–Feldmann instances, UCDDCP
sweeps) are embarrassingly parallel *across instances*.  :func:`solve_many`
fans one façade ``solve`` configuration out over a list of instances on
the shared :class:`~repro.pool.executor.ProcessPool`:

* bounded in-flight work (at most ``workers`` solves at a time),
* results collected **in input order** regardless of completion order,
* per-instance **error isolation** — a solve that raises yields a
  :class:`BatchError` record in its slot; the batch never crashes and the
  surviving results keep their indices,
* optional **supervision** — ``task_timeout`` reaps hung solves,
  ``task_retries`` respawns crashed/timed-out/corrupted ones, and a solve
  that fails every attempt degrades to a ``poison_task`` error record
  carrying its full :class:`~repro.pool.errors.PoisonTaskReport`,
* **end-to-end integrity** — every returned solution is re-validated by
  the independent schedule checker
  (:func:`repro.problems.validation.validate_schedule`) before it is
  accepted; a result that survived the transport digest but violates a
  structural constraint degrades to a ``validation`` error record rather
  than polluting downstream tables.

Determinism: each solve seeds its own RNG from its config exactly as a
serial loop would, so a batch run produces the same per-instance results
as ``[solver_for(i).solve(method, **kw) for i in instances]``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.pool.errors import (
    LOCAL_HOST_LABEL,
    PayloadIntegrityError,
    PoisonTaskError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.pool.executor import ProcessPool
from repro.resilience.faults import FaultPlan
from repro.pool.worker import solve_chunk, solve_one
from repro.problems.validation import ScheduleError, validate_schedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.results import SolveResult
    from repro.problems.cdd import CDDInstance
    from repro.problems.ucddcp import UCDDCPInstance

__all__ = [
    "BatchError",
    "BatchItem",
    "error_kind",
    "solve_many",
    "iter_solve_many",
]

Instance = "CDDInstance | UCDDCPInstance"

#: ``chunk_size="auto"``: instances at or below this job count are
#: considered small enough that fork/pickle overhead dominates the solve.
CHUNK_SMALL_N = 20
#: ``chunk_size="auto"``: how many consecutive small instances share one
#: worker task.
CHUNK_TARGET = 8


@dataclasses.dataclass(frozen=True)
class BatchError:
    """The error record an isolated per-instance failure degrades to.

    ``report`` carries the quarantine evidence (a
    :class:`~repro.pool.errors.PoisonTaskReport` as JSON) when
    ``error_type == "poison_task"``.  ``host`` names the machine whose
    final attempt failed — ``"local"`` for in-process pools, the agent's
    ``host:port`` label for distributed attempts — so multi-host triage
    can name the machine.
    """

    index: int
    error: str
    error_type: str
    report: dict | None = None
    host: str = LOCAL_HOST_LABEL

    @property
    def ok(self) -> bool:
        return False


@dataclasses.dataclass(frozen=True)
class BatchItem:
    """One slot of a finished batch: the result or its error record."""

    index: int
    instance: Any
    result: "SolveResult | None"
    error: BatchError | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


def error_kind(value: BaseException) -> str:
    """The structured ``error_type`` string for a pool-surfaced failure.

    Shared vocabulary for every layer that renders pool failures to
    users: batch error records and the service's per-job error payloads
    name the same outcome the same way (``poison_task`` /
    ``worker_timeout`` / ``payload_integrity`` / ``worker_crash``, or
    the exception's type name for an ordinary in-task error).
    """
    if isinstance(value, PoisonTaskError):
        return "poison_task"
    if isinstance(value, WorkerTimeoutError):
        return "worker_timeout"
    if isinstance(value, PayloadIntegrityError):
        return "payload_integrity"
    if isinstance(value, WorkerCrashError):
        return "worker_crash"
    return type(value).__name__


def _error_item(index: int, instance: Any, value: BaseException) -> BatchItem:
    report = (
        value.report.to_json() if isinstance(value, PoisonTaskError) else None
    )
    host = (
        value.report.host if isinstance(value, PoisonTaskError)
        else LOCAL_HOST_LABEL
    )
    return BatchItem(
        index=index,
        instance=instance,
        result=None,
        error=BatchError(index=index, error=str(value),
                         error_type=error_kind(value), report=report,
                         host=host),
    )


def _plan_chunks(
    instances: Sequence[Any], chunk_size: int | str | None
) -> list[list[int]]:
    """Group instance indices into per-task chunks.

    ``None`` keeps the process-per-instance contract.  ``"auto"`` packs
    runs of *consecutive* small instances (``n <= CHUNK_SMALL_N``) into
    chunks of :data:`CHUNK_TARGET`; large instances always get their own
    task (their solve dominates the fork cost, and one process per solve
    keeps crash isolation maximal where it is cheapest).  An integer
    packs every ``chunk_size`` consecutive instances unconditionally.
    """
    if chunk_size is None:
        return [[i] for i in range(len(instances))]
    if chunk_size == "auto":
        groups: list[list[int]] = []
        run: list[int] = []
        for i, inst in enumerate(instances):
            n = getattr(inst, "n", None)
            if n is not None and n <= CHUNK_SMALL_N:
                run.append(i)
                if len(run) >= CHUNK_TARGET:
                    groups.append(run)
                    run = []
            else:
                if run:
                    groups.append(run)
                    run = []
                groups.append([i])
        if run:
            groups.append(run)
        return groups
    if isinstance(chunk_size, int) and not isinstance(chunk_size, bool):
        if chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, 'auto' or None, got {chunk_size}"
            )
        return [
            list(range(lo, min(lo + chunk_size, len(instances))))
            for lo in range(0, len(instances), chunk_size)
        ]
    raise ValueError(
        f"chunk_size must be an int, 'auto' or None, got {chunk_size!r}"
    )


def _validated_item(instance: Any, index: int, result: Any) -> BatchItem:
    try:
        # Defense in depth: the transport digest proves the bytes
        # arrived intact; the independent checker proves the *content*
        # is a feasible schedule whose stored objective recomputes.
        validate_schedule(instance, result.schedule)
    except ScheduleError as exc:
        return _error_item(index, instance, exc)
    return BatchItem(index=index, instance=instance, result=result)


def iter_solve_many(
    instances: Sequence[Any],
    method: str = "parallel_sa",
    workers: int | None = None,
    context: str | None = None,
    task_timeout: float | None = None,
    task_retries: int = 0,
    fault_plan: FaultPlan | None = None,
    chunk_size: int | str | None = None,
    **solve_kwargs: Any,
) -> Iterator[BatchItem]:
    """Yield :class:`BatchItem` per instance in **completion** order.

    The streaming variant of :func:`solve_many` — use it to render
    progress or start post-processing before the stragglers finish.

    ``chunk_size`` packs several instances per worker task to amortize
    fork/pickle overhead on small instances (``"auto"`` groups runs of
    consecutive instances with ``n <= 20`` eight per task; an int groups
    unconditionally; ``None``, the default, keeps process-per-instance).
    Results and seeds are identical either way; the one trade-off is
    crash isolation — a worker that *dies* abnormally takes its whole
    chunk's attempt with it, so every instance of the chunk degrades to
    the same error record (ordinary per-instance exceptions remain
    isolated inside the chunk).
    """
    chunks = _plan_chunks(instances, chunk_size)
    pool = ProcessPool(
        workers=workers, context=context, task_timeout=task_timeout,
        task_retries=task_retries, fault_plan=fault_plan,
    )
    tasks = []
    labels = []
    for j, group in enumerate(chunks):
        if len(group) == 1:
            index = group[0]
            tasks.append(
                (solve_one, (instances[index], method, dict(solve_kwargs)))
            )
            labels.append(getattr(instances[index], "name", f"task{index}"))
        else:
            tasks.append(
                (
                    solve_chunk,
                    ([instances[i] for i in group], method,
                     dict(solve_kwargs)),
                )
            )
            labels.append(f"chunk{j}[{group[0]}..{group[-1]}]")
    for task_index, status, value in pool.imap_unordered(tasks, labels=labels):
        if status == "interrupt":
            raise KeyboardInterrupt
        group = chunks[task_index]
        if status != "ok":
            # A chunk-level abnormal death (crash/timeout/quarantine)
            # cannot be attributed to one member; every instance in the
            # chunk records the same error.
            for index in group:
                yield _error_item(index, instances[index], value)
            continue
        if len(group) == 1:
            yield _validated_item(instances[group[0]], group[0], value)
            continue
        for index, (item_status, item_value) in zip(group, value):
            if item_status != "ok":
                yield _error_item(index, instances[index], item_value)
            else:
                yield _validated_item(instances[index], index, item_value)


def solve_many(
    instances: Sequence[Any],
    method: str = "parallel_sa",
    workers: int | None = None,
    context: str | None = None,
    task_timeout: float | None = None,
    task_retries: int = 0,
    fault_plan: FaultPlan | None = None,
    chunk_size: int | str | None = None,
    **solve_kwargs: Any,
) -> list[BatchItem]:
    """Solve every instance with one configuration; results in input order.

    ``solve_kwargs`` are forwarded to the façade ``solve`` (``config=``,
    ``backend=``, method kwargs...).  A failed instance occupies its slot
    with ``item.ok == False`` and a populated ``item.error``.
    ``chunk_size`` (``"auto"`` or an int) packs several small instances
    per worker task — same results, less fork/pickle overhead; see
    :func:`iter_solve_many`.
    """
    items: list[BatchItem | None] = [None] * len(instances)
    for item in iter_solve_many(
        instances, method, workers=workers, context=context,
        task_timeout=task_timeout, task_retries=task_retries,
        fault_plan=fault_plan, chunk_size=chunk_size, **solve_kwargs,
    ):
        items[item.index] = item
    out = [item for item in items if item is not None]
    assert len(out) == len(instances)
    return out


def batch_wall_time(
    instances: Sequence[Any],
    method: str = "parallel_sa",
    workers: int | None = None,
    **solve_kwargs: Any,
) -> tuple[list[BatchItem], float]:
    """``solve_many`` plus its wall-clock — the benchmark helper."""
    start = time.perf_counter()
    items = solve_many(instances, method, workers=workers, **solve_kwargs)
    return items, time.perf_counter() - start
