"""The pool primitive: bounded, supervised process-per-task execution.

Every parallel feature in this repo (ensemble sharding, ``solve_many``,
``ResilientRunner.run_units(workers=N)``) funnels through
:class:`ProcessPool`, so the concurrency semantics live in exactly one
place:

* **Bounded in-flight work** -- at most ``workers`` child processes exist
  at any moment; remaining tasks queue on the host.
* **Process-per-task** -- each task runs in a fresh child (no long-lived
  worker loop).  Tasks here are whole solver invocations (seconds to
  minutes), so the ~1 ms fork cost is noise, and a fresh process per task
  means a crashed or leaky task can never poison a sibling.
* **Error isolation** -- a task that raises delivers its exception as a
  *value*; a task whose process dies outright (segfault, ``kill -9``)
  delivers :class:`WorkerCrashError`.  The pool itself never raises for a
  task failure.
* **Supervision** -- an optional per-task wall-clock deadline
  (``task_timeout``): a child that exceeds it is SIGTERM'd, escalated to
  SIGKILL after ``term_grace_s``, and surfaces as
  :class:`WorkerTimeoutError` -- siblings keep running and collecting
  throughout.  Abnormal outcomes (crash, timeout, corrupt payload) are
  retried in-pool up to ``task_retries`` times; a task that fails *every*
  attempt is quarantined with a structured
  :class:`~repro.pool.errors.PoisonTaskReport` instead of being retried
  forever.
* **Result integrity** -- children ship results as an explicit pickle
  blob plus its SHA-256 digest; the parent verifies the digest before
  deserializing, so silent transport corruption surfaces as
  :class:`PayloadIntegrityError` rather than as a wrong answer.
* **Interrupt propagation** -- ``KeyboardInterrupt`` in a child is
  re-raised on the host when its result is collected, preserving the
  resilient runner's stop-scheduling/flush/skip semantics.

Results travel over one ``multiprocessing.Pipe`` per task and are
multiplexed with :func:`multiprocessing.connection.wait`, so a slow task
never blocks collection of a fast one; retry cool-downs are folded into
the wait timeout, so a cooling-down task never blocks it either.

The default start method is the platform's (``fork`` on Linux), which
permits closure tasks.  Payloads used by the library itself are built
spawn-safe (module-level functions + picklable arguments) so the pool also
works under ``spawn``/``forkserver`` via ``context=`` -- including fault
directives, which travel as plain strings.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.engine.config import check_retries, check_timeout, check_workers
from repro.instances.digest import sha256_hex
from repro.pool.errors import (
    PayloadIntegrityError,
    PoisonTaskError,
    PoisonTaskReport,
    TaskAttempt,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.resilience.faults import FaultPlan

__all__ = [
    "ProcessPool",
    "PoolFuture",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "PayloadIntegrityError",
    "default_workers",
]


def default_workers(cap: int | None = None) -> int:
    """The pool size used when the caller does not choose one."""
    n = os.cpu_count() or 1
    if cap is not None:
        n = min(n, cap)
    return max(n, 1)


# One hashing contract repo-wide (repro.instances.digest): children hash
# their result blob with the same SHA-256 the net transport and the
# service result cache use.
_digest = sha256_hex


def _child_main(
    conn: Connection,
    fn: Callable[..., Any],
    args: tuple,
    directive: str | None = None,
) -> None:
    """Child entry point: run the task, ship one tagged result, exit.

    ``directive`` arms a ``task`` site fault
    (:mod:`repro.resilience.faults`): ``kill`` exits abruptly before running
    the task (the parent sees a closed pipe, exactly like a segfault);
    ``hang`` stalls forever before running it (only the watchdog reaps
    it); ``corrupt-payload`` runs the task and computes the true digest,
    then flips a byte of the pickled result before sending -- the
    parent's digest check must catch it.
    """
    try:
        if directive == "kill":
            conn.close()
            os._exit(77)
        if directive == "hang":
            while True:  # pragma: no cover - only ever exits via a signal
                time.sleep(3600)
        value = fn(*args)
        blob = pickle.dumps(value)
        digest = _digest(blob)
        if directive == "corrupt-payload":
            blob = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        conn.send(("ok", blob, digest))
    except KeyboardInterrupt:
        conn.send(("interrupt", None))
    except BaseException as exc:  # noqa: BLE001 - exceptions travel as values
        try:
            conn.send(("error", exc))
        except Exception:
            # Unpicklable exception: degrade to its repr, keep the type name.
            conn.send(("error", RuntimeError(f"unpicklable {exc!r}")))
    finally:
        conn.close()


def receive_outcome(
    connection: Connection, process: mp.process.BaseProcess, label: str
) -> tuple[str, Any]:
    """Receive and decode one child message; never raises.

    Returns ``(status, value)`` where status is ``"ok"``/``"error"``/
    ``"interrupt"`` (the protocol statuses) or ``"crash"``/``"integrity"``
    (abnormal outcomes a supervisor may retry).  Any receive or decode
    failure is confined to this task: a torn or undecodable message must
    never escape and kill the caller's collection loop.  Shared by the
    pool's multiplexed collection and the service's single-job
    :class:`~repro.pool.dispatch.SupervisedDispatch`, so both speak the
    identical child protocol.
    """
    try:
        try:
            # Bounded by construction: only connections that wait()
            # reported ready (or poll() confirmed) reach this receive, so
            # recv() returns without blocking; hung children are the
            # watchdog's job, not this read's.
            message = connection.recv()  # repro-lint: disable=RPL008 -- recv only after wait()/poll() readiness; hangs are reaped by the deadline watchdog
        finally:
            connection.close()
        process.join()
    except EOFError:
        process.join()
        code = process.exitcode
        return "crash", WorkerCrashError(
            f"worker process for task {label!r} died without reporting "
            f"a result (exit code {code})"
        )
    except Exception as exc:  # noqa: BLE001 - isolate decode failures
        process.join()
        return "crash", WorkerCrashError(
            f"result for task {label!r} could not be received: {exc!r}"
        )
    status = message[0]
    if status != "ok":
        return status, message[1]
    blob, digest = message[1], message[2]
    if _digest(blob) != digest:
        return "integrity", PayloadIntegrityError(
            f"result for task {label!r} failed its content-digest "
            f"check ({len(blob)} bytes); payload corrupted in transit"
        )
    try:
        return "ok", pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - isolate decode failures
        return "crash", WorkerCrashError(
            f"result for task {label!r} could not be deserialized: "
            f"{exc!r}"
        )


def reap_child(
    process: mp.process.BaseProcess,
    connection: Connection,
    term_grace_s: float,
) -> None:
    """SIGTERM the child, escalate to SIGKILL after the grace period."""
    connection.close()
    if process.is_alive():
        process.terminate()
        process.join(term_grace_s)
        if process.is_alive():
            process.kill()
    process.join()


class PoolFuture:
    """Handle for one in-flight task attempt (internal to the pool)."""

    __slots__ = ("index", "process", "connection", "outcome", "attempt",
                 "deadline")

    def __init__(
        self,
        index: int,
        process: mp.process.BaseProcess,
        connection: Connection,
        attempt: int = 1,
        deadline: float | None = None,
    ) -> None:
        self.index = index
        self.process = process
        self.connection = connection
        #: 1-based attempt number of this spawn.
        self.attempt = attempt
        #: Absolute watchdog deadline (``None`` = unsupervised).
        self.deadline = deadline
        #: ``("ok"|"error"|"interrupt", value)`` once collected.
        self.outcome: tuple[str, Any] | None = None


class ProcessPool:
    """Run tasks in child processes, at most ``workers`` at a time.

    Parameters
    ----------
    workers:
        Maximum concurrent child processes (``None`` = ``os.cpu_count()``).
    context:
        multiprocessing start-method name (``"fork"``/``"spawn"``/
        ``"forkserver"``); ``None`` uses the platform default.
    task_timeout:
        Per-task wall-clock deadline in seconds; a child exceeding it is
        killed and its attempt counted as a timeout.  ``None`` (default)
        disables the watchdog.
    task_retries:
        How many times an *abnormal* attempt (crash/timeout/corrupt
        payload -- never an ordinary in-task exception) is retried in a
        fresh child.  With the default of 0 a single failure surfaces its
        raw error; with retries, a task failing every attempt surfaces
        :class:`~repro.pool.errors.PoisonTaskError` carrying the full
        attempt history.
    retry_delay:
        Optional ``attempt -> seconds`` cool-down before respawning
        (0-based attempt).  Delays never block sibling collection: they
        are folded into the pipe-multiplexing timeout.
    term_grace_s:
        Grace period between SIGTERM and SIGKILL when reaping a child.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` whose
        ``task`` specs arm deterministic transport faults per
        ``(task, attempt)``.
    clock:
        Injectable monotonic clock (tests substitute it).
    """

    def __init__(
        self,
        workers: int | None = None,
        context: str | None = None,
        task_timeout: float | None = None,
        task_retries: int = 0,
        retry_delay: Callable[[int], float] | None = None,
        term_grace_s: float = 0.5,
        fault_plan: FaultPlan | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        check_workers(workers)
        check_timeout(task_timeout, "task_timeout")
        check_retries(task_retries, "task_retries")
        check_timeout(term_grace_s, "term_grace_s")
        self.workers = workers if workers is not None else default_workers()
        self.task_timeout = task_timeout
        self.task_retries = task_retries
        self.retry_delay = retry_delay
        self.term_grace_s = term_grace_s
        self.fault_plan = fault_plan
        self._clock = clock
        self._sleep = time.sleep
        self._ctx = mp.get_context(context)
        if fault_plan is not None:
            fault_plan.check_watchdog(task_timeout)

    # -- core: completion-ordered iteration ----------------------------

    def imap_unordered(
        self,
        tasks: Sequence[tuple[Callable[..., Any], tuple]],
        labels: Sequence[str] | None = None,
    ) -> Iterator[tuple[int, str, Any]]:
        """Yield ``(index, status, value)`` as tasks finish.

        ``status`` is ``"ok"`` (value = task return), ``"error"`` (value =
        the exception: the task's own, :class:`WorkerCrashError` /
        :class:`WorkerTimeoutError` / :class:`PayloadIntegrityError` for
        an abnormal single-attempt failure, or
        :class:`~repro.pool.errors.PoisonTaskError` after a quarantine),
        or ``"interrupt"`` (child saw ``KeyboardInterrupt``).  Every task
        index is yielded exactly once, retries notwithstanding.
        Generator cleanup (including an exception in the consumer)
        terminates all in-flight children.

        ``labels`` names tasks in supervision logs and quarantine reports
        (default ``task<i>``).
        """
        specs = [(fn, args) for fn, args in tasks]
        if labels is None:
            names = [f"task{i}" for i in range(len(specs))]
        else:
            names = [str(x) for x in labels]
            if len(names) != len(specs):
                raise ValueError(
                    f"{len(names)} labels for {len(specs)} tasks"
                )
        pending: deque[int] = deque(range(len(specs)))
        cooling: list[tuple[float, int]] = []  # (ready_at, index)
        history: dict[int, list[TaskAttempt]] = {}
        inflight: dict[Connection, PoolFuture] = {}
        try:
            while pending or cooling or inflight:
                now = self._clock()
                while len(inflight) < self.workers:
                    index = self._next_runnable(pending, cooling, now)
                    if index is None:
                        break
                    self._spawn(index, specs[index], history, inflight, now)
                if not inflight:
                    # Whole capacity idle; a retry is cooling down.
                    self._sleep(
                        max(0.0, min(at for at, _ in cooling) - now)
                    )
                    continue
                ready = wait(
                    list(inflight),
                    self._wait_timeout(inflight, cooling, now),
                )
                for conn in ready:
                    fut = inflight.pop(conn)  # type: ignore[arg-type]
                    status, value = self._collect(fut, names)
                    resolved = self._resolve(
                        fut, status, value, names, history, cooling
                    )
                    if resolved is not None:
                        yield resolved
                if self.task_timeout is None:
                    continue
                now = self._clock()
                for conn, fut in list(inflight.items()):
                    if fut.deadline is None or now < fut.deadline:
                        continue
                    if conn.poll():
                        continue  # result raced the deadline; collect it
                    inflight.pop(conn)
                    self._reap(fut)
                    error = WorkerTimeoutError(
                        f"task {names[fut.index]!r} exceeded its "
                        f"{self.task_timeout:g}s deadline on attempt "
                        f"{fut.attempt} and was killed"
                    )
                    resolved = self._resolve(
                        fut, "timeout", error, names, history, cooling
                    )
                    if resolved is not None:
                        yield resolved
        finally:
            for fut in inflight.values():
                fut.connection.close()
                if fut.process.is_alive():
                    fut.process.terminate()
                fut.process.join()

    # -- supervision internals ------------------------------------------

    def _next_runnable(
        self, pending: deque[int], cooling: list[tuple[float, int]],
        now: float,
    ) -> int | None:
        """The next task index to spawn: due retries first, then fresh."""
        if cooling:
            at, index = min(cooling)
            if at <= now:
                cooling.remove((at, index))
                return index
        if pending:
            return pending.popleft()
        return None

    def _spawn(
        self,
        index: int,
        spec: tuple[Callable[..., Any], tuple],
        history: dict[int, list[TaskAttempt]],
        inflight: dict[Connection, PoolFuture],
        now: float,
    ) -> None:
        fn, args = spec
        attempt = len(history.get(index, ())) + 1
        directive = (
            self.fault_plan.directive("task", index, attempt)
            if self.fault_plan is not None else None
        )
        recv, send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_child_main, args=(send, fn, args, directive)
        )
        proc.start()
        # The parent must not hold the child's write end open, or a dead
        # child would never raise EOFError on recv.
        send.close()
        deadline = (
            now + self.task_timeout if self.task_timeout is not None else None
        )
        inflight[recv] = PoolFuture(
            index, proc, recv, attempt=attempt, deadline=deadline
        )

    def _wait_timeout(
        self,
        inflight: dict[Connection, PoolFuture],
        cooling: list[tuple[float, int]],
        now: float,
    ) -> float | None:
        """How long the pipe multiplexer may block before the next duty:
        the earliest watchdog deadline or retry cool-down expiry."""
        wakeups = [
            fut.deadline for fut in inflight.values()
            if fut.deadline is not None
        ]
        if cooling and len(inflight) < self.workers:
            wakeups.append(min(at for at, _ in cooling))
        if not wakeups:
            return None
        return max(0.0, min(wakeups) - now)

    def _collect(
        self, fut: PoolFuture, names: Sequence[str]
    ) -> tuple[str, Any]:
        """Receive and decode one child message (see :func:`receive_outcome`)."""
        return receive_outcome(fut.connection, fut.process, names[fut.index])

    def _resolve(
        self,
        fut: PoolFuture,
        status: str,
        value: Any,
        names: Sequence[str],
        history: dict[int, list[TaskAttempt]],
        cooling: list[tuple[float, int]],
    ) -> tuple[int, str, Any] | None:
        """Turn one attempt outcome into a yielded triple or a retry.

        Normal outcomes pass through.  Abnormal ones (crash/timeout/
        integrity) are recorded in the task's attempt history and either
        respawned (budget left), surfaced raw (single-attempt pool -- the
        pre-supervision contract), or quarantined as a
        :class:`PoisonTaskError` wrapping the full history.
        """
        index = fut.index
        if status not in ("crash", "timeout", "integrity"):
            return index, status, value
        attempts = history.setdefault(index, [])
        attempts.append(TaskAttempt(
            attempt=fut.attempt,
            outcome=status,
            error=str(value),
            exitcode=fut.process.exitcode,
        ))
        if fut.attempt <= self.task_retries:
            delay = (
                self.retry_delay(fut.attempt - 1)
                if self.retry_delay is not None else 0.0
            )
            cooling.append((self._clock() + max(0.0, delay), index))
            return None
        if self.task_retries == 0:
            return index, "error", value
        report = PoisonTaskReport(
            index=index, label=names[index], attempts=tuple(attempts)
        )
        return index, "error", PoisonTaskError(report)

    def _reap(self, fut: PoolFuture) -> None:
        """SIGTERM the child, escalate to SIGKILL after the grace period."""
        reap_child(fut.process, fut.connection, self.term_grace_s)

    # -- conveniences ---------------------------------------------------

    def map(
        self, fn: Callable[..., Any], argtuples: Iterable[tuple]
    ) -> list[tuple[str, Any]]:
        """Run ``fn(*args)`` for each argtuple; ``(status, value)`` in order.

        A child ``KeyboardInterrupt`` is re-raised on the host after all
        children have been reaped.
        """
        tasks = [(fn, args) for args in argtuples]
        results: list[tuple[str, Any] | None] = [None] * len(tasks)
        interrupted = False
        for index, status, value in self.imap_unordered(tasks):
            if status == "interrupt":
                interrupted = True
                results[index] = ("interrupt", None)
            else:
                results[index] = (status, value)
        if interrupted:
            raise KeyboardInterrupt
        return [r for r in results if r is not None]

    def run_thunks(
        self, thunks: Sequence[Callable[[], Any]]
    ) -> list[tuple[str, Any]]:
        """Run argument-less callables; results in submission order."""
        return self.map(_call_thunk, [(t,) for t in thunks])


def _call_thunk(thunk: Callable[[], Any]) -> Any:
    return thunk()
