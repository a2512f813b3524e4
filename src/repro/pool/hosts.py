"""The client side of the distributed pool: supervised multi-host dispatch.

:class:`HostPool` drives one or more remote :class:`~repro.pool.agent.
HostAgent` endpoints through the framed protocol (:mod:`repro.pool.net`)
and exposes the same ``imap_unordered -> (index, status, value)`` contract
as the local :class:`~repro.pool.executor.ProcessPool`, so the ensemble
sharding runner swaps it in without touching the merge.

Supervision ladder, in escalation order:

1. **Heartbeats** — the pool pings every ``heartbeat_interval_s`` and
   requires *some* frame from each host within ``heartbeat_timeout_s``;
   a silent host (network blackhole, frozen agent) is declared dead even
   though its TCP connection still looks open.
2. **Reconnect with deterministic backoff** — a failed connection is
   redialed up to ``reconnect_attempts`` times under an exponential
   schedule (``backoff_base_s * backoff_factor**k``, capped at
   ``backoff_max_s``); a successful handshake resets the budget.  Tasks
   that were in flight on the dead connection go back on the queue and
   are re-sent — to the reconnected host or any other live one.
3. **Failover** — a host that exhausts its reconnect budget is LOST; its
   queued-back tasks simply run on the survivors.  Because tasks are
   deterministic (fixed ``OffsetRNG`` offsets per shard), a re-run
   returns byte-identical results, so failover never changes an answer.
4. **All hosts lost** — :class:`~repro.pool.errors.AllHostsLostError`;
   the distributed ensemble runner catches it and degrades to the local
   multiprocess pool.

Host-loss re-runs are free: they do not consume the ``task_retries``
budget, because nothing about the *task* failed.  What does consume it:
TASK_FAILED frames from an agent (its child crashed, timed out, or the
task frame arrived corrupt) and result payloads that fail their digest
or fail to deserialize.  A task that exhausts the budget surfaces as
:class:`~repro.pool.errors.PoisonTaskError` whose attempts carry the
host that ran each one.

Chaos drills inject ``send`` site faults of a
:class:`~repro.resilience.faults.FaultPlan` (``--inject-fault
send:...``) at the client's send path, so every rung of the ladder is
testable against stock agents.
"""

from __future__ import annotations

import pickle
import socket
import time
from collections import deque
from typing import Any, Callable, Iterator, Sequence

from repro.core.engine.config import check_backoff, check_retries, check_timeout
from repro.pool.errors import (
    AllHostsLostError,
    FrameError,
    HostHeartbeatError,
    HostProtocolError,
    HostUnreachableError,
    PayloadIntegrityError,
    PoisonTaskError,
    PoisonTaskReport,
    TaskAttempt,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.pool.net import (
    CONTROL_TASK_ID,
    FRAME_BYE,
    FRAME_HELLO,
    FRAME_PING,
    FRAME_PONG,
    FRAME_REJECT,
    FRAME_RESULT_ERROR,
    FRAME_RESULT_INTERRUPT,
    FRAME_RESULT_OK,
    FRAME_TASK,
    FRAME_TASK_FAILED,
    FRAME_WELCOME,
    PROTOCOL_VERSION,
    HostSpec,
    client_socket,
    encode_frame,
    read_frame,
    send_frame,
    send_json_frame,
)
from repro.resilience.faults import SEND_DELAY_S, FaultPlan

__all__ = ["HostPool"]

_CONNECTED = "connected"
_RECONNECTING = "reconnecting"
_LOST = "lost"

_FAILED_ERRORS: dict[str, type[WorkerCrashError]] = {
    "crash": WorkerCrashError,
    "timeout": WorkerTimeoutError,
    "integrity": PayloadIntegrityError,
}


class _InjectedDisconnect(Exception):
    """Internal: a ``send`` fault directive asked for an abrupt close."""


class _HostLink:
    """Connection state for one configured host."""

    __slots__ = (
        "spec", "sock", "state", "inflight", "last_seen", "last_ping",
        "failures", "retry_at", "blackholed", "last_error",
    )

    def __init__(self, spec: HostSpec) -> None:
        self.spec = spec
        self.sock: socket.socket | None = None
        self.state = _RECONNECTING
        #: Task indices currently on this host's wire/queue.
        self.inflight: set[int] = set()
        self.last_seen = 0.0
        self.last_ping = 0.0
        #: Consecutive connection failures since the last good handshake.
        self.failures = 0
        self.retry_at = 0.0
        #: Armed by the ``blackhole`` net fault: stop reading and pinging
        #: so the host goes silent from the pool's point of view.
        self.blackholed = False
        self.last_error: Exception | None = None

    @property
    def label(self) -> str:
        return self.spec.label


class HostPool:
    """Run tasks on remote host agents; ProcessPool-shaped interface.

    Parameters
    ----------
    hosts:
        The topology, one :class:`~repro.pool.net.HostSpec` per agent.
        Worker counts are task credits per host; their sum is the pool's
        total parallelism.
    task_retries:
        Retry budget for *task* failures reported by an agent (child
        crash/timeout, corrupt frame, undecodable result).  Host-loss
        re-runs never consume it.
    heartbeat_interval_s / heartbeat_timeout_s:
        Ping cadence and the silence deadline that declares a host dead.
    connect_timeout_s / io_timeout_s:
        Dial deadline and the armed per-operation socket timeout.
    reconnect_attempts / backoff_base_s / backoff_factor / backoff_max_s:
        The deterministic reconnect schedule (rung 2 of the ladder).
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` whose
        ``send`` specs are injected at the send path.
    clock / sleep:
        Injectable time sources (tests substitute them).
    """

    def __init__(
        self,
        hosts: Sequence[HostSpec],
        *,
        task_retries: int = 0,
        heartbeat_interval_s: float = 2.0,
        heartbeat_timeout_s: float = 10.0,
        connect_timeout_s: float = 5.0,
        io_timeout_s: float = 30.0,
        reconnect_attempts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max_s: float = 2.0,
        fault_plan: FaultPlan | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        specs = tuple(hosts)
        if not specs:
            raise ValueError("HostPool needs at least one host spec")
        check_retries(task_retries, "task_retries")
        check_retries(reconnect_attempts, "reconnect_attempts")
        check_timeout(heartbeat_interval_s, "heartbeat_interval_s")
        check_timeout(heartbeat_timeout_s, "heartbeat_timeout_s")
        check_timeout(connect_timeout_s, "connect_timeout_s")
        check_timeout(io_timeout_s, "io_timeout_s")
        check_backoff(backoff_base_s, backoff_factor, backoff_max_s)
        self.hosts = specs
        self.task_retries = task_retries
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.io_timeout_s = io_timeout_s
        self.reconnect_attempts = reconnect_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_factor = backoff_factor
        self.backoff_max_s = backoff_max_s
        self.fault_plan = fault_plan
        self._clock = clock
        self._sleep = sleep

    # -- core: completion-ordered iteration -----------------------------

    def imap_unordered(
        self,
        tasks: Sequence[tuple[Callable[..., Any], tuple]],
        labels: Sequence[str] | None = None,
    ) -> Iterator[tuple[int, str, Any]]:
        """Yield ``(index, status, value)`` as remote tasks finish.

        Same contract as :meth:`ProcessPool.imap_unordered`; every index
        is yielded exactly once, reconnects and failover notwithstanding.
        Raises :class:`AllHostsLostError` when no host remains — indices
        not yet yielded are simply the ones the caller must re-run
        locally (re-runs are deterministic).
        """
        specs = [(fn, args) for fn, args in tasks]
        if labels is None:
            names = [f"task{i}" for i in range(len(specs))]
        else:
            names = [str(x) for x in labels]
            if len(names) != len(specs):
                raise ValueError(f"{len(names)} labels for {len(specs)} tasks")
        links = [_HostLink(spec) for spec in self.hosts]
        pending: deque[int] = deque(range(len(specs)))
        done: set[int] = set()
        send_attempts: dict[int, int] = {}
        history: dict[int, list[TaskAttempt]] = {}
        try:
            for link in links:
                self._connect(link, pending)
            while len(done) < len(specs):
                now = self._clock()
                for link in links:
                    if link.state == _RECONNECTING and link.retry_at <= now:
                        self._connect(link, pending)
                if all(link.state == _LOST for link in links):
                    raise AllHostsLostError(self._lost_message(links))
                self._dispatch(
                    links, pending, done, specs, names, send_attempts
                )
                for out in self._pump(links, pending, done, names, history):
                    done.add(out[0])
                    yield out
        finally:
            for link in links:
                self._close(link, bye=True)

    # -- dispatch --------------------------------------------------------

    def _dispatch(
        self,
        links: list[_HostLink],
        pending: deque[int],
        done: set[int],
        specs: Sequence[tuple[Callable[..., Any], tuple]],
        names: Sequence[str],
        send_attempts: dict[int, int],
    ) -> None:
        """Hand queued tasks to connected hosts, up to each host's credit.

        Host order is the configured order and assignment is greedy —
        which host runs which task is *not* part of the determinism
        contract (results are), so no attempt is made to balance beyond
        the per-host credit.
        """
        for link in links:
            while (
                link.state == _CONNECTED
                and not link.blackholed
                and len(link.inflight) < link.spec.workers
                and pending
            ):
                index = pending.popleft()
                if index in done:
                    continue
                self._send_task(
                    link, index, specs[index], names[index], send_attempts,
                    pending,
                )

    def _send_task(
        self,
        link: _HostLink,
        index: int,
        spec: tuple[Callable[..., Any], tuple],
        label: str,
        send_attempts: dict[int, int],
        pending: deque[int],
    ) -> None:
        fn, args = spec
        attempt = send_attempts.get(index, 0) + 1
        send_attempts[index] = attempt
        directive = (
            self.fault_plan.directive("send", index, attempt, link.label)
            if self.fault_plan is not None else None
        )
        frame = encode_frame(
            FRAME_TASK, pickle.dumps((fn, args, label)), task_id=index
        )
        link.inflight.add(index)
        assert link.sock is not None
        try:
            if directive == "delay":
                self._sleep(SEND_DELAY_S)
            elif directive == "corrupt-frame":
                # Flip the final payload byte *after* the header digest
                # was computed; the agent's integrity check must fire.
                frame = frame[:-1] + bytes([frame[-1] ^ 0xFF])
            elif directive == "partial-frame":
                link.sock.sendall(frame[: len(frame) // 2])
                raise _InjectedDisconnect(
                    f"injected partial-frame to {link.label}"
                )
            link.sock.sendall(frame)
            if directive == "disconnect":
                raise _InjectedDisconnect(
                    f"injected disconnect to {link.label}"
                )
            if directive == "blackhole":
                link.blackholed = True
        except _InjectedDisconnect as exc:
            self._link_failed(
                link, pending, HostUnreachableError(str(exc))
            )
        except (OSError, socket.timeout) as exc:
            self._link_failed(
                link, pending,
                HostUnreachableError(
                    f"send to host {link.label} failed: {exc!r}"
                ),
            )

    # -- receive ---------------------------------------------------------

    def _pump(
        self,
        links: list[_HostLink],
        pending: deque[int],
        done: set[int],
        names: Sequence[str],
        history: dict[int, list[TaskAttempt]],
    ) -> list[tuple[int, str, Any]]:
        """One multiplexer beat: wait, read frames, enforce heartbeats."""
        from multiprocessing.connection import wait

        now = self._clock()
        readable = [
            link.sock for link in links
            if link.state == _CONNECTED
            and not link.blackholed
            and link.sock is not None
        ]
        timeout = self._beat_timeout(links, now)
        if readable:
            ready = set(wait(readable, timeout))
        else:
            self._sleep(timeout)
            ready = set()
        out: list[tuple[int, str, Any]] = []
        for link in list(links):
            if link.sock is not None and link.sock in ready:
                out.extend(
                    self._drain(link, pending, done, names, history)
                )
        now = self._clock()
        for link in links:
            if link.state != _CONNECTED:
                continue
            if now - link.last_seen > self.heartbeat_timeout_s:
                self._link_failed(
                    link, pending,
                    HostHeartbeatError(
                        f"host {link.label} silent for more than "
                        f"{self.heartbeat_timeout_s:g}s "
                        "(missed heartbeat deadline)"
                    ),
                )
                continue
            if link.blackholed:
                continue
            if now - link.last_ping >= self.heartbeat_interval_s:
                link.last_ping = now
                try:
                    assert link.sock is not None
                    send_frame(link.sock, FRAME_PING)
                except (OSError, socket.timeout) as exc:
                    self._link_failed(
                        link, pending,
                        HostUnreachableError(
                            f"ping to host {link.label} failed: {exc!r}"
                        ),
                    )
        return out

    def _beat_timeout(self, links: list[_HostLink], now: float) -> float:
        """How long the multiplexer may block before the next duty:
        the earliest ping due, silence deadline, or reconnect retry."""
        wakeups = []
        for link in links:
            if link.state == _CONNECTED:
                wakeups.append(link.last_seen + self.heartbeat_timeout_s)
                if not link.blackholed:
                    wakeups.append(link.last_ping + self.heartbeat_interval_s)
            elif link.state == _RECONNECTING:
                wakeups.append(link.retry_at)
        if not wakeups:
            return self.heartbeat_interval_s
        return max(0.0, min(min(wakeups) - now, self.heartbeat_timeout_s))

    def _drain(
        self,
        link: _HostLink,
        pending: deque[int],
        done: set[int],
        names: Sequence[str],
        history: dict[int, list[TaskAttempt]],
    ) -> list[tuple[int, str, Any]]:
        """Read one frame from a ready link and translate it to outcomes."""
        assert link.sock is not None
        try:
            frame = read_frame(link.sock)
        except PayloadIntegrityError as exc:
            task_id = getattr(exc, "task_id", CONTROL_TASK_ID)
            if task_id == CONTROL_TASK_ID or task_id in done:
                self._link_failed(
                    link, pending,
                    HostUnreachableError(
                        f"corrupt control frame from {link.label}: {exc}"
                    ),
                )
                return []
            link.inflight.discard(task_id)
            out = self._task_failed(
                link, task_id, "integrity", str(exc), names, history, pending
            )
            return [out] if out is not None else []
        except (FrameError, ConnectionError, socket.timeout, OSError) as exc:
            self._link_failed(
                link, pending,
                HostUnreachableError(
                    f"connection to host {link.label} failed: {exc!r}"
                ),
            )
            return []
        if frame is None:
            self._link_failed(
                link, pending,
                HostUnreachableError(
                    f"host {link.label} closed the connection"
                ),
            )
            return []
        link.last_seen = self._clock()
        if frame.kind == FRAME_PONG:
            return []
        index = frame.task_id
        if index == CONTROL_TASK_ID or index in done:
            return []  # stale or control traffic; nothing to resolve
        if frame.kind == FRAME_RESULT_OK:
            link.inflight.discard(index)
            try:
                value = pickle.loads(frame.payload)
            except Exception as exc:  # noqa: BLE001 - confine decode failures
                out = self._task_failed(
                    link, index, "crash",
                    f"result for task {names[index]!r} could not be "
                    f"deserialized: {exc!r}",
                    names, history, pending,
                )
                return [out] if out is not None else []
            return [(index, "ok", value)]
        if frame.kind == FRAME_RESULT_ERROR:
            link.inflight.discard(index)
            try:
                error = pickle.loads(frame.payload)
            except Exception as exc:  # noqa: BLE001 - confine decode failures
                out = self._task_failed(
                    link, index, "crash",
                    f"error for task {names[index]!r} could not be "
                    f"deserialized: {exc!r}",
                    names, history, pending,
                )
                return [out] if out is not None else []
            return [(index, "error", error)]
        if frame.kind == FRAME_RESULT_INTERRUPT:
            link.inflight.discard(index)
            return [(index, "interrupt", None)]
        if frame.kind == FRAME_TASK_FAILED:
            link.inflight.discard(index)
            failed = frame.json()
            out = self._task_failed(
                link, index,
                str(failed.get("outcome", "crash")),
                str(failed.get("error", "agent reported task failure")),
                names, history, pending,
            )
            return [out] if out is not None else []
        self._link_failed(
            link, pending,
            HostUnreachableError(
                f"host {link.label} sent unexpected frame kind {frame.kind}"
            ),
        )
        return []

    def _task_failed(
        self,
        link: _HostLink,
        index: int,
        outcome: str,
        error_text: str,
        names: Sequence[str],
        history: dict[int, list[TaskAttempt]],
        pending: deque[int],
    ) -> tuple[int, str, Any] | None:
        """Record one abnormal task attempt; retry or surface it.

        Mirrors :meth:`ProcessPool._resolve`: within budget the task goes
        back on the queue (any live host may pick it up); an exhausted
        budget surfaces the raw error (``task_retries=0``) or a
        :class:`PoisonTaskError` whose attempts name the hosts.
        """
        if outcome not in _FAILED_ERRORS:
            outcome = "crash"
        error = _FAILED_ERRORS[outcome](error_text)
        attempts = history.setdefault(index, [])
        attempts.append(TaskAttempt(
            attempt=len(attempts) + 1,
            outcome=outcome,
            error=error_text,
            exitcode=None,
            host=link.label,
        ))
        if len(attempts) <= self.task_retries:
            pending.append(index)
            return None
        if self.task_retries == 0:
            return index, "error", error
        report = PoisonTaskReport(
            index=index, label=names[index], attempts=tuple(attempts)
        )
        return index, "error", PoisonTaskError(report)

    # -- connection ladder -----------------------------------------------

    def _connect(self, link: _HostLink, pending: deque[int]) -> None:
        """Dial + handshake one host; schedule a retry on failure.

        A REJECT frame or a version mismatch raises
        :class:`HostProtocolError` — reconnecting cannot fix a protocol
        disagreement, so it fails the pool immediately.
        """
        try:
            sock = client_socket(
                link.spec.address, self.connect_timeout_s, self.io_timeout_s
            )
        except (OSError, socket.timeout) as exc:
            self._link_failed(
                link, pending,
                HostUnreachableError(
                    f"connect to host {link.label} failed: {exc!r}"
                ),
            )
            return
        try:
            send_json_frame(
                sock, FRAME_HELLO,
                {"protocol": PROTOCOL_VERSION, "client": "repro.pool.hosts"},
            )
            frame = read_frame(sock)
        except (FrameError, PayloadIntegrityError, ConnectionError,
                socket.timeout, OSError) as exc:
            sock.close()
            self._link_failed(
                link, pending,
                HostUnreachableError(
                    f"handshake with host {link.label} failed: {exc!r}"
                ),
            )
            return
        if frame is not None and frame.kind == FRAME_REJECT:
            reason = frame.json().get("reason", "no reason given")
            sock.close()
            raise HostProtocolError(
                f"host {link.label} rejected the connection: {reason}"
            )
        if frame is None or frame.kind != FRAME_WELCOME:
            sock.close()
            self._link_failed(
                link, pending,
                HostUnreachableError(
                    f"host {link.label} closed during handshake"
                ),
            )
            return
        welcome = frame.json()
        if welcome.get("protocol") != PROTOCOL_VERSION:
            sock.close()
            raise HostProtocolError(
                f"host {link.label} speaks protocol "
                f"{welcome.get('protocol')!r}, this client speaks "
                f"{PROTOCOL_VERSION}"
            )
        link.sock = sock
        link.state = _CONNECTED
        link.failures = 0
        link.blackholed = False
        now = self._clock()
        link.last_seen = now
        link.last_ping = now

    def _link_failed(
        self, link: _HostLink, pending: deque[int], error: Exception
    ) -> None:
        """Tear down a connection; requeue its work; schedule the ladder.

        Requeued indices go to the *front* of the queue in index order so
        failover work is picked up before fresh work — it was already
        running once.  These re-runs never touch the task-retry budget.
        """
        if link.sock is not None:
            link.sock.close()
            link.sock = None
        link.blackholed = False
        link.last_error = error
        requeue = sorted(link.inflight)
        link.inflight.clear()
        pending.extendleft(reversed(requeue))
        link.failures += 1
        if link.failures > self.reconnect_attempts:
            link.state = _LOST
            return
        delay = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (link.failures - 1),
        )
        link.state = _RECONNECTING
        link.retry_at = self._clock() + delay

    def _lost_message(self, links: list[_HostLink]) -> str:
        details = "; ".join(
            f"{link.label}: {link.last_error}" for link in links
        )
        return (
            f"all {len(links)} host(s) lost after exhausting "
            f"{self.reconnect_attempts} reconnect attempt(s) each — {details}"
        )

    def _close(self, link: _HostLink, bye: bool = False) -> None:
        if link.sock is None:
            return
        if bye and link.state == _CONNECTED:
            try:
                send_frame(link.sock, FRAME_BYE)
            except (OSError, socket.timeout):
                pass
        link.sock.close()
        link.sock = None
