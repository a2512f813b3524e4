"""The scheduling service: HTTP JSON API over the job queue and cache.

:class:`SchedulingService` is the transport-free core — submit/poll/
result/metrics as plain ``(status, body, headers)`` triples — and the
``http.server``-based layer underneath exposes it on a socket:

========  =======================  ==========================================
method    path                     meaning
========  =======================  ==========================================
POST      ``/v1/submit``           submit one job (202 queued, 200 cache hit
                                   or idempotent replay, 400 invalid, 429
                                   queue full, 503 draining — the last two
                                   with a depth-scaled Retry-After)
POST      ``/v1/batch``            submit many jobs in one request
GET       ``/v1/jobs/{id}``        job status document
GET       ``/v1/jobs/{id}/result`` result document (409 unfinished, 500
                                   failed with the structured error)
GET       ``/healthz``             ``starting``/``ok``/``draining``/
                                   ``degraded`` + queue depth
GET       ``/metrics``             counters, job states, cache + journal
                                   stats, fitness implementation
========  =======================  ==========================================

Responses are canonical JSON (sorted keys), which is what makes a cache
hit *byte-identical* to the fresh response it replays.  Every job runs
in a supervised child process, so the worst a poisonous request can do
is fail its own job with a structured error — the service process never
dies with it.  With ``--state-dir`` the service is also durable: jobs
are journaled write-ahead and survive a crash or restart (see
:mod:`repro.service.journal`).
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Mapping

from repro.core.engine.config import check_retries, check_timeout
from repro.pool.worker import solve_one
from repro.resilience.faults import FaultPlan
from repro.problems.validation import ScheduleError, validate_schedule
from repro.seqopt import native
from repro.service.admission import (
    AdmissionPolicy,
    ValidatedJob,
    ValidationError,
    validate_request,
)
from repro.service.cache import CacheKey, ResultCache
from repro.service.jobs import Job, JobRegistry, ServiceMetrics, error_payload
from repro.service.journal import JobJournal
from repro.service.queue import JobDispatcher

__all__ = ["SchedulingService", "ServiceHTTPServer", "make_server"]

#: Ceiling for the dynamic Retry-After hint (seconds); the floor is the
#: policy's ``retry_after_s``.
RETRY_AFTER_CAP_S = 30.0

Reply = "tuple[int, dict, dict[str, str]]"

_JOB_ROUTE = re.compile(r"/v1/jobs/([A-Za-z0-9_-]+)(/result)?")


class SchedulingService:
    """Queue, cache and registry behind one submit/poll/result surface.

    ``task_timeout`` is the default per-job deadline when a request
    carries no ``deadline_s``; either maps onto the dispatch-level
    watchdog, so a job over budget is killed and reported — never run to
    completion on a client that has already given up.  ``fault_plan``
    arms deterministic worker faults by job admission sequence (the CI
    drill kills a worker mid-job with it).

    ``state_dir`` arms durability: every job transition is journaled
    (write-ahead, CRC-guarded, fsync'd) and :meth:`start` replays the
    journal — terminal jobs stay resolvable, interrupted jobs re-run
    idempotently through the result cache.  ``max_terminal_jobs`` bounds
    registry memory (evicted ids are served read-through from the
    journal); ``drain_grace_s`` is how long SIGTERM-style :meth:`drain`
    lets in-flight jobs finish before cancelling them.
    """

    def __init__(
        self,
        policy: AdmissionPolicy | None = None,
        workers: int = 1,
        cache: ResultCache | None = None,
        task_timeout: float | None = None,
        task_retries: int = 0,
        fault_plan: FaultPlan | None = None,
        context: str | None = None,
        state_dir: Path | str | None = None,
        max_terminal_jobs: int | None = None,
        drain_grace_s: float = 10.0,
    ) -> None:
        check_timeout(task_timeout, "task_timeout")
        check_retries(task_retries, "task_retries")
        check_timeout(drain_grace_s, "drain_grace_s")
        if fault_plan is not None:
            fault_plan.check_watchdog(task_timeout)
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.registry = JobRegistry(max_terminal_jobs=max_terminal_jobs)
        self.metrics = ServiceMetrics()
        self.cache = cache
        self.task_timeout = task_timeout
        self.task_retries = task_retries
        self.fault_plan = fault_plan
        self.workers = workers
        self.drain_grace_s = drain_grace_s
        self.journal = (
            JobJournal(Path(state_dir) / "journal.jsonl")
            if state_dir is not None else None
        )
        self.dispatcher = JobDispatcher(
            self._run_job,
            workers=workers,
            queue_cap=self.policy.queue_cap,
            context=context,
        )
        #: ``starting`` until :meth:`start` finishes replay, then ``ok``;
        #: ``draining`` once shutdown begins.  /healthz reports
        #: ``degraded`` (computed, not stored) on dead workers or a lost
        #: distributed host set.
        self._state = "starting"
        self._hosts_lost = False
        self._journal_quarantined = 0
        self._idem_lock = threading.Lock()
        #: idempotency key -> job id of the original submission.
        self._idempotency: dict[str, str] = {}

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        if self.journal is not None:
            self._recover()
        self.dispatcher.start()
        self._state = "ok"

    def stop(self) -> int:
        """Fast shutdown: cancel in-flight children.  Returns the number
        of worker threads that outlived the join (0 = clean)."""
        self._state = "draining"
        leaked = self.dispatcher.stop(abandon=self._abandon)
        if leaked:
            self.metrics.increment("worker_threads_leaked", by=leaked)
        return leaked

    def drain(self) -> int:
        """Graceful shutdown: finish in-flight jobs within the grace
        budget, journal the backlog ``interrupted`` for next-boot
        re-enqueue.  Returns leaked worker threads like :meth:`stop`."""
        self._state = "draining"
        leaked = self.dispatcher.drain(
            self.drain_grace_s, abandon=self._abandon
        )
        if leaked:
            self.metrics.increment("worker_threads_leaked", by=leaked)
        return leaked

    def _abandon(self, job: Job) -> None:
        """A queued job shutdown will never run: journal it interrupted
        (it re-enqueues at next boot) and fail it for current pollers."""
        if self.journal is not None:
            self.journal.record_interrupted(job.id)
        self.registry.update(
            job.id,
            state="failed",
            error={
                "error": "service shut down before the job ran; it will "
                         "re-run at next start from the journal",
                "error_type": "shutdown",
            },
        )
        self.metrics.increment("jobs_failed")

    def _recover(self) -> None:
        """Replay the journal: restore terminal visibility, re-enqueue
        interrupted work in original admission order."""
        assert self.journal is not None
        recovery = self.journal.replay()
        self._journal_quarantined = recovery.quarantined_lines
        if recovery.quarantined_lines:
            self.metrics.increment(
                "journal_quarantined_lines", by=recovery.quarantined_lines
            )
        self.registry.reserve(recovery.max_seq)
        with self._idem_lock:
            self._idempotency.update(recovery.idempotency)
        # Terminal jobs are *not* rebuilt in memory: their documents are
        # served read-through from the journal, so recovery cost and
        # resident memory stay flat no matter how long the journal is.
        if recovery.terminal:
            self.metrics.increment(
                "recovered_terminal", by=len(recovery.terminal)
            )
        for rec in recovery.pending:
            try:
                validated = validate_request(rec.request, self.policy)
            except ValidationError as exc:
                # The request was admitted once, so this means policy
                # changed across the restart (say, --hosts dropped).
                # Fail it durably rather than re-queueing a poison job.
                job = Job(
                    id=rec.job_id,
                    method=rec.method,
                    instance_name=rec.instance_name,
                    key=rec.key,
                    state="failed",
                    idempotency_key=rec.idempotency_key,
                    error={
                        "error": f"job no longer admissible after "
                                 f"restart: {exc}",
                        "error_type": "validation",
                    },
                )
                self.registry.restore(job)
                self.journal.record_failed(
                    rec.job_id, error=job.error, duration_s=None
                )
                self.metrics.increment("recovered_rejected")
                continue
            job = Job(
                id=rec.job_id,
                method=validated.method,
                instance_name=validated.instance.name,
                key=CacheKey.for_job(validated).hex,
                idempotency_key=rec.idempotency_key,
                recovered=True,
                validated=validated,
            )
            self.registry.restore(job)
            self.dispatcher.enqueue_recovered(job)
            self.metrics.increment("recovered_requeued")

    # -- submission -----------------------------------------------------

    def submit(self, body: Any) -> Reply:
        """One submission: 200 cache hit / idempotent terminal replay,
        202 queued, 400 invalid, 429 full, 503 draining."""
        if self._state == "draining":
            return self._draining_reply()
        try:
            validated = validate_request(body, self.policy)
        except ValidationError as exc:
            self.metrics.increment("rejected_invalid")
            return 400, {"error": str(exc), "error_type": "validation"}, {}
        ikey = validated.idempotency_key
        if ikey is None:
            return self._admit(validated, body)
        # Lookup + admit + record are one critical section, so two
        # concurrent submissions with the same key cannot both admit.
        with self._idem_lock:
            existing = self._idempotency.get(ikey)
            if existing is not None:
                reply = self._idempotent_reply(existing, validated)
                if reply is not None:
                    return reply
                # The original job is gone even from the journal (its
                # submitted line was corrupted): admit afresh below and
                # let the new job own the key.
            status, doc, headers = self._admit(validated, body)
            if status in (200, 202):
                self._idempotency[ikey] = doc["job_id"]
            return status, doc, headers

    def _idempotent_reply(
        self, job_id: str, validated: ValidatedJob
    ) -> Reply | None:
        """The original submission's status, or ``None`` if untraceable."""
        doc = self.registry.status(job_id)
        if doc is None and self.journal is not None:
            view = self.journal.lookup(job_id)
            if view is not None:
                doc = {k: v for k, v in view.items() if k != "document"}
        if doc is None:
            return None
        if doc.get("key") != CacheKey.for_job(validated).hex:
            return 409, {
                "error": (
                    f"idempotency_key reused with a different request; "
                    f"the original submission is job {job_id!r}"
                ),
                "error_type": "idempotency_conflict",
                "job_id": job_id,
            }, {}
        self.metrics.increment("idempotent_replays")
        code = 200 if doc.get("state") in ("done", "failed") else 202
        return code, doc, {}

    def _draining_reply(self) -> Reply:
        hint = self.retry_after_hint()
        return 503, {
            "error": "service is draining; retry against the restarted "
                     "instance",
            "error_type": "draining",
            "retry_after_s": hint,
        }, self._retry_after_headers()

    def submit_batch(self, body: Any) -> Reply:
        """Submit a list of jobs; per-item outcomes, one admission each.

        Items are admitted independently — a bad or bounced item never
        blocks its siblings.  The response carries one entry per item
        (mirroring batch solve's slot-per-instance contract).  When
        *every* item bounced off the full queue the whole response is
        429 with Retry-After, so naive clients back off correctly.
        """
        if self._state == "draining":
            return self._draining_reply()
        if not isinstance(body, dict):
            return 400, {
                "error": "batch body must be a JSON object",
                "error_type": "validation",
            }, {}
        items = body.get("jobs")
        if not isinstance(items, list) or not items:
            return 400, {
                "error": "'jobs' must be a non-empty array of submissions",
                "error_type": "validation",
            }, {}
        if len(items) > self.policy.max_batch:
            return 400, {
                "error": (
                    f"batch of {len(items)} exceeds max_batch="
                    f"{self.policy.max_batch}"
                ),
                "error_type": "validation",
            }, {}
        entries = []
        statuses = []
        for item in items:
            status, doc, _ = self.submit(item)
            statuses.append(status)
            entries.append({"status": status, **doc})
        if statuses and all(status == 429 for status in statuses):
            return 429, {"jobs": entries}, self._retry_after_headers()
        return 200, {"jobs": entries}, {}

    def _admit(self, validated: ValidatedJob, body: Any) -> Reply:
        key = CacheKey.for_job(validated)
        if self.cache is not None:
            payload = self.cache.load(key)
            if payload is not None:
                job = self.registry.create(
                    method=validated.method,
                    instance_name=validated.instance.name,
                    key=key.hex,
                    state="done",
                    cached=True,
                    document=payload,
                    idempotency_key=validated.idempotency_key,
                )
                self._journal_submitted(job, validated, body)
                if self.journal is not None:
                    self.journal.record_done(
                        job.id, document=payload, cached=True,
                        duration_s=None,
                    )
                self.metrics.increment("submitted")
                self.metrics.increment("cache_hits")
                status = self.registry.status(job.id)
                assert status is not None
                return 200, status, {}
            self.metrics.increment("cache_misses")
        job = self.registry.create(
            method=validated.method,
            instance_name=validated.instance.name,
            key=key.hex,
            validated=validated,
            idempotency_key=validated.idempotency_key,
        )
        if not self.dispatcher.try_enqueue(job):
            self.registry.discard(job.id)
            self.metrics.increment("rejected_queue_full")
            hint = self.retry_after_hint()
            return 429, {
                "error": (
                    f"job queue is full ({self.policy.queue_cap} waiting); "
                    f"retry after {hint:g}s"
                ),
                "error_type": "queue_full",
                "retry_after_s": hint,
            }, self._retry_after_headers()
        # Journal after the enqueue decision: a bounced job leaves no
        # trace to replay.  The replay path tolerates a racing worker
        # journaling ``running`` a moment before this line lands.
        self._journal_submitted(job, validated, body)
        self.metrics.increment("submitted")
        status = self.registry.status(job.id)
        assert status is not None
        return 202, status, {}

    def _journal_submitted(
        self, job: Job, validated: ValidatedJob, body: Any
    ) -> None:
        if self.journal is None:
            return
        self.journal.record_submitted(
            job.id,
            # Registry ids are "j%06d", so the numeric part doubles as
            # the admission sequence the registry reserves at replay.
            seq=int(job.id[1:]),
            request=body,
            key=job.key,
            method=job.method,
            instance_name=job.instance_name,
            idempotency_key=validated.idempotency_key,
        )

    def retry_after_hint(self) -> float:
        """Back-off hint scaled by queue depth, clamped to
        ``[policy.retry_after_s, RETRY_AFTER_CAP_S]``.

        A full 4-deep queue and a full 400-deep queue should not tell
        clients the same thing: the deeper the backlog, the longer a
        retry will keep bouncing, so the hint grows linearly with depth
        until the cap.
        """
        base = self.policy.retry_after_s
        depth = self.dispatcher.depth()
        return max(base, min(RETRY_AFTER_CAP_S, base * max(depth, 1)))

    def _retry_after_headers(self) -> dict[str, str]:
        return {"Retry-After": str(math.ceil(self.retry_after_hint()))}

    # -- polling --------------------------------------------------------

    def job_status(self, job_id: str) -> Reply:
        doc = self.registry.status(job_id)
        if doc is None:
            doc = self._journal_status(job_id)
        if doc is None:
            return 404, {
                "error": f"no such job {job_id!r}",
                "error_type": "not_found",
            }, {}
        return 200, doc, {}

    def job_result(self, job_id: str) -> Reply:
        view = self.registry.result_view(job_id)
        if view is None:
            reply = self._journal_result(job_id)
            if reply is not None:
                return reply
            return 404, {
                "error": f"no such job {job_id!r}",
                "error_type": "not_found",
            }, {}
        state, body = view
        if state == "done":
            return 200, body, {}
        if state == "failed":
            return 500, body, {}
        return 409, {
            "error": f"job {job_id!r} is {state}, not finished; poll "
                     f"/v1/jobs/{job_id}",
            "error_type": "unfinished",
            "state": state,
        }, {}

    def _journal_status(self, job_id: str) -> dict[str, Any] | None:
        """Status read-through for evicted / pre-restart terminal jobs."""
        if self.journal is None:
            return None
        view = self.journal.lookup(job_id)
        if view is None:
            return None
        self.metrics.increment("journal_read_through")
        return {k: v for k, v in view.items() if k != "document"}

    def _journal_result(self, job_id: str) -> Reply | None:
        if self.journal is None:
            return None
        view = self.journal.lookup(job_id)
        if view is None:
            return None
        self.metrics.increment("journal_read_through")
        if view["state"] == "done" and view.get("document") is not None:
            # The journaled document is the exact dict the cache stored,
            # so this replay is byte-identical to the pre-crash response.
            return 200, view["document"], {}
        return 500, {k: v for k, v in view.items() if k != "document"}, {}

    def health(self) -> Reply:
        reasons = []
        alive = self.dispatcher.alive_workers()
        if self._state == "ok" and alive < self.workers:
            reasons.append(
                f"{self.workers - alive} of {self.workers} worker "
                "thread(s) dead"
            )
        if self._hosts_lost:
            reasons.append("distributed host set lost")
        if self._state in ("starting", "draining"):
            status = self._state
        elif reasons:
            status = "degraded"
        else:
            status = "ok"
        doc: dict[str, Any] = {
            "status": status,
            "queue_depth": self.dispatcher.depth(),
            "queue_cap": self.policy.queue_cap,
            "workers": self.workers,
            "alive_workers": alive,
        }
        if reasons:
            doc["reasons"] = reasons
        headers = (
            self._retry_after_headers() if status == "draining" else {}
        )
        return 200, doc, headers

    def metrics_doc(self) -> Reply:
        doc: dict[str, Any] = {
            "state": self._state,
            "counters": self.metrics.snapshot(),
            "jobs": self.registry.counts(),
            "terminal_jobs": self.registry.eviction_stats(),
            "queue_depth": self.dispatcher.depth(),
            "queue_cap": self.policy.queue_cap,
            "workers": self.workers,
            "alive_workers": self.dispatcher.alive_workers(),
            "cache": self.cache.stats() if self.cache is not None else None,
            "journal": (
                {
                    "appends": self.journal.appends,
                    "quarantined_at_boot": self._journal_quarantined,
                }
                if self.journal is not None else None
            ),
            # Which fitness implementation this process evaluates with,
            # and which kernel bodies run compiled.  Results are
            # bit-identical either way, so it is reported here and never
            # stored in a result document.
            "fitness": native.describe(),
            "kernels": native.describe_kernels(),
        }
        return 200, doc, {}

    # -- execution ------------------------------------------------------

    def _run_job(self, job: Job, dispatch: Any, seq: int) -> None:
        """Run one admitted job on the worker's supervised dispatch.

        Never raises: every outcome — including a bug in dispatch itself
        — lands on the job record as a structured error, because a queue
        worker dying would silently halve service capacity.
        """
        validated = job.validated
        assert validated is not None
        if job.recovered and self.cache is not None:
            # Idempotent re-execution: if the pre-crash run finished and
            # its result landed in the content-addressed cache, this is
            # a byte-identical replay, not a re-solve.
            payload = self.cache.load(CacheKey.for_job(validated))
            if payload is not None:
                if self.journal is not None:
                    self.journal.record_done(
                        job.id, document=payload, cached=True,
                        duration_s=None,
                    )
                self.registry.update(
                    job.id, state="done", cached=True, document=payload
                )
                self.metrics.increment("cache_hits")
                self.metrics.increment("jobs_completed")
                return
            self.metrics.increment("cache_misses")
        if self.journal is not None:
            self.journal.record_running(job.id)
        self.registry.update(job.id, state="running")
        deadline = (
            validated.deadline_s if validated.deadline_s is not None
            else self.task_timeout
        )
        start = time.perf_counter()
        try:
            status, value = dispatch.run(
                solve_one,
                (validated.instance, validated.method,
                 dict(validated.solve_kwargs)),
                label=job.id,
                task_timeout=deadline,
                task_retries=self.task_retries,
                fault_plan=self.fault_plan,
                task_index=seq,
            )
        except Exception as exc:  # noqa: BLE001 - worker must survive anything
            status, value = "error", exc
        duration = time.perf_counter() - start
        if status == "ok":
            try:
                # Same defense in depth as batch solving: the transport
                # digest proved the bytes, this proves the content.
                validate_schedule(validated.instance, value.schedule)
            except ScheduleError as exc:
                status, value = "error", exc
        if status == "ok":
            document = {
                "instance": validated.instance.name,
                "method": validated.method,
                "key": job.key,
                "result": value.to_dict(),
            }
            if self.cache is not None:
                self.cache.store(CacheKey.for_job(validated), document)
                self.metrics.increment("cache_stores")
            if self.journal is not None:
                self.journal.record_done(
                    job.id, document=document, cached=False,
                    duration_s=duration,
                )
            self.registry.update(
                job.id, state="done", document=document, duration_s=duration
            )
            self.metrics.increment("jobs_completed")
            if validated.backend == "distributed":
                self._hosts_lost = False
            return
        if status == "cancelled":
            error = {
                "error": "job cancelled: service shutting down; it will "
                         "re-run at next start from the journal",
                "error_type": "cancelled",
            }
            # Cancellation is shutdown, not failure: journaled as
            # ``interrupted`` so the job re-enqueues at next boot.
            if self.journal is not None:
                self.journal.record_interrupted(job.id)
        elif status == "interrupt":
            error = {
                "error": "solve interrupted in the worker",
                "error_type": "interrupt",
            }
        else:
            error = error_payload(value)
        if status != "cancelled" and self.journal is not None:
            self.journal.record_failed(
                job.id, error=error, duration_s=duration
            )
        if (
            validated.backend == "distributed"
            and error.get("error_type") == "AllHostsLostError"
        ):
            self._hosts_lost = True
        self.registry.update(
            job.id, state="failed", error=error, duration_s=duration
        )
        self.metrics.increment("jobs_failed")


# -- HTTP layer ---------------------------------------------------------


def _render(doc: Mapping[str, Any]) -> bytes:
    """Canonical response bytes: sorted-key JSON plus one newline.

    Sorted keys make the rendering a pure function of the document, so
    replaying a cached document is byte-identical to the fresh response
    that stored it.
    """
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


class ServiceHTTPServer(ThreadingHTTPServer):
    """Thread-per-connection HTTP server bound to one service."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, address: tuple[str, int], service: SchedulingService
    ) -> None:
        self.service = service
        super().__init__(address, _ServiceHandler)

    @property
    def label(self) -> str:
        """``host:port`` actually bound (resolves ``:0`` requests)."""
        host, port = self.server_address[:2]
        return f"{host}:{port}"


class _ServiceHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    protocol_version = "HTTP/1.1"

    # Suppress the default per-request stderr lines; the service's
    # observable surface is /metrics, not an access log.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        try:
            self._reply(*self._route_get())
        except Exception as exc:  # noqa: BLE001 - one request, not the server
            self._best_effort_500(exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        try:
            self._reply(*self._route_post())
        except Exception as exc:  # noqa: BLE001 - one request, not the server
            self._best_effort_500(exc)

    # -- routing --------------------------------------------------------

    def _route_get(self) -> tuple[int, dict, dict[str, str]]:
        service = self.server.service
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            return service.health()
        if path == "/metrics":
            return service.metrics_doc()
        match = _JOB_ROUTE.fullmatch(path)
        if match is not None:
            job_id, result_leaf = match.groups()
            if result_leaf:
                return service.job_result(job_id)
            return service.job_status(job_id)
        return self._not_found()

    def _route_post(self) -> tuple[int, dict, dict[str, str]]:
        service = self.server.service
        path = self.path.split("?", 1)[0]
        if path not in ("/v1/submit", "/v1/batch"):
            return self._not_found()
        body, failure = self._read_json(service.policy.max_body_bytes)
        if failure is not None:
            return failure
        if path == "/v1/submit":
            return service.submit(body)
        return service.submit_batch(body)

    def _not_found(self) -> tuple[int, dict, dict[str, str]]:
        return 404, {
            "error": f"no route {self.command} {self.path!r}",
            "error_type": "not_found",
        }, {}

    # -- plumbing -------------------------------------------------------

    def _read_json(
        self, max_bytes: int
    ) -> tuple[Any, "tuple[int, dict, dict[str, str]] | None"]:
        length_text = self.headers.get("Content-Length")
        if length_text is None:
            return None, (411, {
                "error": "Content-Length is required",
                "error_type": "validation",
            }, {})
        try:
            length = int(length_text)
        except ValueError:
            return None, (400, {
                "error": f"bad Content-Length {length_text!r}",
                "error_type": "validation",
            }, {})
        if length < 0:
            return None, (400, {
                "error": f"bad Content-Length {length_text!r}",
                "error_type": "validation",
            }, {})
        if length > max_bytes:
            self._drain_oversized(length, max_bytes)
            return None, (413, {
                "error": f"body of {length} bytes exceeds the "
                         f"{max_bytes}-byte limit",
                "error_type": "validation",
            }, {})
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8")), None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return None, (400, {
                "error": f"body is not valid JSON: {exc}",
                "error_type": "validation",
            }, {})

    def _drain_oversized(self, length: int, max_bytes: int) -> None:
        """Discard a too-large body so the 413 actually reaches the client.

        Replying without consuming the upload races the client's own
        send: closing the socket with unread data makes the kernel reset
        the connection, and the client sees the reset before it can read
        the status line.  Discarding in bounded chunks keeps memory flat
        and lets the client finish writing, so the 413 arrives reliably.
        Bodies beyond ``4 * max_bytes`` are abandoned instead — the
        connection is marked for close and whatever the client had in
        flight is its own problem; a bogus Content-Length must not be
        able to demand unbounded drain work.
        """
        remaining = min(length, 4 * max_bytes)
        if length > 4 * max_bytes:
            self.close_connection = True
        while remaining > 0:
            chunk = self.rfile.read(min(65536, remaining))
            if not chunk:
                break
            remaining -= len(chunk)

    def _reply(
        self, status: int, doc: dict, headers: dict[str, str]
    ) -> None:
        body = _render(doc)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _best_effort_500(self, exc: Exception) -> None:
        try:
            self._reply(500, {
                "error": f"internal error: {exc!r}",
                "error_type": "internal",
            }, {})
        except Exception:  # noqa: BLE001 - headers may already be gone
            # The connection is torn or headers already sent; the client
            # sees a dropped connection, the server thread lives on.
            pass


def make_server(
    service: SchedulingService, host: str, port: int
) -> ServiceHTTPServer:
    """Bind the HTTP layer (``port=0`` picks an ephemeral port)."""
    return ServiceHTTPServer((host, port), service)
