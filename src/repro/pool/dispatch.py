"""Job-level dispatch: one supervised child per job, cancellable.

:class:`~repro.pool.executor.ProcessPool` supervises a *batch* — it owns
scheduling, multiplexed collection and retry ordering for many tasks at
once.  The scheduling service needs the same supervision guarantees
(deadline watchdog, SIGTERM→SIGKILL reaping, digest-checked payloads,
abnormal-attempt retries, poison-task quarantine) but for exactly one
job at a time per queue worker, plus one thing the batch pool does not
offer: **cooperative cancellation**, so a service shutting down can reap
an in-flight solve instead of waiting minutes for it.

:class:`SupervisedDispatch` is that primitive.  It speaks the identical
child protocol (:func:`~repro.pool.executor._child_main` with the
pickle-blob + SHA-256 framing and fault directives), reuses the pool's
:func:`~repro.pool.executor.receive_outcome` /
:func:`~repro.pool.executor.reap_child` helpers, and classifies
outcomes with the same status vocabulary — so a job failure surfaces to
service clients exactly like a batch slot failure surfaces to batch
callers.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from multiprocessing.connection import Connection, wait
from typing import Any, Callable

from repro.core.engine.config import check_retries, check_timeout
from repro.pool.errors import (
    PoisonTaskError,
    PoisonTaskReport,
    TaskAttempt,
    WorkerTimeoutError,
)
from repro.pool.executor import _child_main, reap_child, receive_outcome
from repro.resilience.faults import FaultPlan

__all__ = ["SupervisedDispatch"]

#: How often the supervision loop wakes to check for cancellation.  Small
#: enough that service shutdown feels immediate, large enough that an
#: idle wait costs nothing measurable next to a solve.
DISPATCH_TICK_S = 0.05


class SupervisedDispatch:
    """Run single jobs in supervised child processes, cancellably.

    One instance per queue-worker thread: :meth:`run` executes one job
    at a time; :meth:`cancel` (callable from any thread) makes the
    current and all future :meth:`run` calls return ``("cancelled",
    None)`` promptly, reaping the in-flight child.  Construction mirrors
    the pool's supervision knobs (``context``, ``term_grace_s``); the
    per-job knobs (deadline, retries, fault directives) travel with each
    :meth:`run` call because the service maps *request* deadlines onto
    them.
    """

    def __init__(
        self,
        context: str | None = None,
        term_grace_s: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
        tick_s: float = DISPATCH_TICK_S,
    ) -> None:
        check_timeout(term_grace_s, "term_grace_s")
        check_timeout(tick_s, "tick_s")
        self.term_grace_s = term_grace_s
        self._ctx = mp.get_context(context)
        self._clock = clock
        self._tick_s = tick_s
        self._cancel = threading.Event()

    def cancel(self) -> None:
        """Stop the in-flight job (reaping its child) and refuse new ones."""
        self._cancel.set()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def run(
        self,
        fn: Callable[..., Any],
        args: tuple,
        label: str = "job",
        task_timeout: float | None = None,
        task_retries: int = 0,
        fault_plan: FaultPlan | None = None,
        task_index: int = 0,
    ) -> tuple[str, Any]:
        """Run ``fn(*args)`` in a fresh supervised child; ``(status, value)``.

        ``status`` follows the pool contract — ``"ok"`` (value = task
        return), ``"error"`` (value = the exception: the task's own, a
        :class:`~repro.pool.errors.WorkerCrashError` /
        :class:`WorkerTimeoutError` /
        :class:`~repro.pool.errors.PayloadIntegrityError` for an
        abnormal single-attempt failure, or
        :class:`~repro.pool.errors.PoisonTaskError` after every retry
        failed), ``"interrupt"`` (child saw ``KeyboardInterrupt``) — plus
        ``"cancelled"`` (value ``None``) when :meth:`cancel` fired.

        ``task_timeout`` is the job's wall-clock deadline (the service
        maps per-request deadlines here); ``task_retries`` respawns
        abnormal attempts exactly like the batch pool; ``fault_plan`` /
        ``task_index`` arm deterministic fault directives for drills,
        with ``task_index`` playing the pool's task-index role (the
        service uses the job's dispatch sequence number).
        """
        check_timeout(task_timeout, "task_timeout")
        check_retries(task_retries, "task_retries")
        attempts: list[TaskAttempt] = []
        attempt = 0
        while True:
            attempt += 1
            if self._cancel.is_set():
                return "cancelled", None
            directive = (
                fault_plan.directive("task", task_index, attempt)
                if fault_plan is not None else None
            )
            recv, send = self._ctx.Pipe(duplex=False)
            proc = self._ctx.Process(
                target=_child_main, args=(send, fn, args, directive)
            )
            proc.start()
            # The parent must not hold the child's write end open, or a
            # dead child would never raise EOFError on recv.
            send.close()
            status, value = self._supervise(
                recv, proc, label, task_timeout, attempt
            )
            if status not in ("crash", "timeout", "integrity"):
                return status, value
            attempts.append(TaskAttempt(
                attempt=attempt,
                outcome=status,
                error=str(value),
                exitcode=proc.exitcode,
            ))
            if attempt <= task_retries:
                continue
            if task_retries == 0:
                return "error", value
            report = PoisonTaskReport(
                index=task_index, label=label, attempts=tuple(attempts)
            )
            return "error", PoisonTaskError(report)

    def _supervise(
        self,
        connection: Connection,
        process: mp.process.BaseProcess,
        label: str,
        task_timeout: float | None,
        attempt: int,
    ) -> tuple[str, Any]:
        """Watch one child until result, deadline, or cancellation.

        Blocking is bounded by construction: each wait lasts at most one
        tick (or the remaining deadline, if sooner), so cancellation and
        the watchdog are both serviced within a tick.
        """
        deadline = (
            self._clock() + task_timeout if task_timeout is not None else None
        )
        while True:
            if self._cancel.is_set():
                reap_child(process, connection, self.term_grace_s)
                return "cancelled", None
            timeout = self._tick_s
            if deadline is not None:
                timeout = min(timeout, max(0.0, deadline - self._clock()))
            if wait([connection], timeout):
                return receive_outcome(connection, process, label)
            if deadline is not None and self._clock() >= deadline:
                if connection.poll():
                    # Result raced the deadline; collect it.
                    return receive_outcome(connection, process, label)
                reap_child(process, connection, self.term_grace_s)
                return "timeout", WorkerTimeoutError(
                    f"job {label!r} exceeded its {task_timeout:g}s deadline "
                    f"on attempt {attempt} and was killed"
                )
