"""service-open: open-loop HTTP load against an in-process service.

One sender thread issues ``POST /v1/submit`` at a fixed rate regardless
of how the service keeps up; one poller thread polls
``GET /v1/jobs/{id}`` until each job is terminal, then fetches
``/result``.  A request's latency runs from its *scheduled* send time to
the arrival of its result document, so a stall also charges the requests
queued behind it.

Traffic mixes fresh CDD n=20 solves (cache misses: journal fsync, child
fork, solve, cache store) with resubmissions of already-completed
requests (cache hits on the read path).
"""

from __future__ import annotations

import http.client
import json
import queue
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from perfbench import config
from perfbench.checks import check_schedule, require
from perfbench.layers import handler_routes, service_layer
from perfbench.record import Metric, percentile, tail_percentile
from perfbench.tracer import Tracer
from perfbench.workload import Outcome, Workload

__all__ = ["ServiceOpen"]

_HTTP_TIMEOUT_S = 30.0
#: A request that fails in transport counts as a failed operation.
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


@dataclass
class _Request:
    """One scheduled send and what became of it."""

    due: float  # seconds after the schedule starts
    body_index: int = -1  # which request body was sent
    job_id: str = ""
    hit: bool = False
    status: int = 0
    latency_s: float | None = None
    result: bytes = b""
    polls: int = 0
    #: Dispatch time the service reports for a fresh job (fork + solve).
    duration_s: float = 0.0


def _call(address: tuple[str, int], method: str, path: str,
          body: bytes | None = None) -> tuple[int, bytes]:
    """One request on its own connection.

    Each request opens a fresh connection, as independent clients do.  On
    a kept-alive connection every response of this server stalls about
    40 ms (it writes headers and body in two segments, and Nagle waits
    for the client's delayed ACK), which would make the single poller
    the bottleneck of the measurement.
    """
    conn = http.client.HTTPConnection(*address, timeout=_HTTP_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class ServiceOpen(Workload):
    """Open-loop mix of cache misses and hits against ``SchedulingService``."""

    name = "service-open"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.server: Any = None
        self.service: Any = None
        self.thread: threading.Thread | None = None
        self.workdir: str | None = None
        self.bodies: list[bytes] = []
        self.instances: list[Any] = []
        self.body_instance: list[int] = []
        self.refs: dict[str, float] = {}
        self.warm_result = b""

    # -- service lifecycle ------------------------------------------------

    def setup(self) -> None:
        self.build_inputs()
        self._start_service()

    def build_inputs(self) -> None:
        from repro.instances import biskup_instance

        self.refs = {
            name: entry["objective"]
            for name, entry in json.loads(
                (self.root / config.BESTKNOWN_PATH).read_text()).items()
        }
        self.instances = [
            biskup_instance(config.SERVICE_N, h, k)
            for k in (1, 2, 3) for h in (0.4, 0.8)
        ]
        self.bodies, self.body_instance = [], []
        # Body 0 is the warm-up request; it is also the resubmission
        # target before any scheduled request has completed.
        self._add_body(0, solver_seed=0)

    def _add_body(self, instance_index: int, solver_seed: int) -> int:
        self.bodies.append(json.dumps({
            "instance": self.instances[instance_index].to_dict(),
            "method": "parallel_sa",
            "config": {"iterations": config.SERVICE_ITERATIONS,
                       "seed": solver_seed},
        }, sort_keys=True).encode("utf-8"))
        self.body_instance.append(instance_index)
        return len(self.bodies) - 1

    def _start_service(self) -> None:
        from repro.service import (
            AdmissionPolicy,
            ResultCache,
            SchedulingService,
            make_server,
        )

        self.workdir = tempfile.mkdtemp(dir=self.root,
                                        prefix=config.WORK_PREFIX)
        self.service = SchedulingService(
            policy=AdmissionPolicy(),
            workers=1,
            cache=ResultCache(Path(self.workdir) / "cache"),
            state_dir=Path(self.workdir) / "state",
        )
        self.service.start()
        self.server = make_server(self.service, "127.0.0.1", 0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-http",
            daemon=True)
        self.thread.start()
        self.warm_result = self._warm_up()

    def _warm_up(self) -> bytes:
        """Body 0 through the HTTP API to its result document.

        A refusal or a stall here is a set-up failure (``RuntimeError``),
        not a wrong answer.
        """
        address = self.server.server_address[:2]
        status, raw = _call(address, "POST", "/v1/submit", self.bodies[0])
        if status not in (200, 202):
            raise RuntimeError(f"warm-up submit got HTTP {status}")
        job_id = json.loads(raw)["job_id"]
        deadline = time.perf_counter() + config.SERVICE_DRAIN_S
        while True:
            status, raw = _call(address, "GET", f"/v1/jobs/{job_id}")
            if json.loads(raw)["state"] in ("done", "failed"):
                break
            if time.perf_counter() > deadline:
                raise RuntimeError("warm-up request did not finish")
            time.sleep(config.SERVICE_POLL_INTERVAL_S)
        status, raw = _call(address, "GET", f"/v1/jobs/{job_id}/result")
        if status != 200:
            raise RuntimeError(f"warm-up result got HTTP {status}")
        return raw

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
            self.server = None
        if self.service is not None:
            self.service.stop()
            self.service = None
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    # -- measuring --------------------------------------------------------

    def _schedule(self, seconds: float) -> tuple[list[_Request], list[float]]:
        """Sends every ``1 / rate`` seconds: ``(requests, hit draws)``.

        The seed picks which slots resubmit (an exact share, so the
        fresh-solve count is fixed) and each fresh request's
        instance and solver seed; a resubmission's draw picks among the
        requests completed by its send time.  Evenly spaced sends keep
        run-to-run spread down: Poisson bursts at two-thirds load moved
        the median by a third between seeds.
        """
        rng = np.random.default_rng([self.seed, 2])
        del self.bodies[1:], self.body_instance[1:]
        total = int(seconds * config.SERVICE_RATE_PER_S)
        resubmit = set(rng.choice(
            total, round(total * config.SERVICE_HIT_SHARE), replace=False))
        requests, draws = [], []
        for index in range(total):
            req = _Request(due=index / config.SERVICE_RATE_PER_S)
            if index in resubmit:
                draws.append(rng.random())
            else:
                draws.append(-1.0)
                req.body_index = self._add_body(
                    int(rng.integers(len(self.instances))),
                    int(rng.integers(1, 2**31)))
            requests.append(req)
        return requests, draws

    def measure(self, seconds: float, tracer: Tracer | None) -> Outcome:
        if tracer is None:
            return self._run_load(seconds, None)
        # A fresh service built under the patches: the dispatcher captures
        # its runner when the service is constructed.
        self.teardown()
        with service_layer(tracer):
            self._start_service()
            with handler_routes(tracer, self.server.RequestHandlerClass):
                return self._run_load(seconds, tracer)

    def _run_load(self, seconds: float, tracer: Tracer | None) -> Outcome:
        requests, draws = self._schedule(seconds)
        completed: list[int] = [0]  # body indices with a stored result
        results_by_body: dict[int, bytes] = {0: self.warm_result}
        lock = threading.Lock()
        inbox: "queue.Queue[_Request | None]" = queue.Queue()
        lags: list[float] = []
        address = self.server.server_address[:2]
        start = time.perf_counter() + 0.05

        def sender() -> None:
            for req, draw in zip(requests, draws):
                delay = start + req.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lags.append(time.perf_counter() - start - req.due)
                if draw >= 0.0:
                    with lock:
                        req.body_index = completed[int(draw * len(completed))]
                try:
                    req.status, raw = _call(address, "POST", "/v1/submit",
                                            self.bodies[req.body_index])
                except _TRANSPORT_ERRORS:
                    req.status = -1
                    continue
                if req.status in (200, 202):
                    doc = json.loads(raw)
                    req.job_id = doc["job_id"]
                    req.hit = bool(doc["cached"])
                    inbox.put(req)
            inbox.put(None)

        def poll(req: _Request) -> bool:
            """Advance one job; ``True`` once it is finished."""
            if not req.hit:
                req.polls += 1
                _, raw = _call(address, "GET", f"/v1/jobs/{req.job_id}")
                doc = json.loads(raw)
                if doc["state"] not in ("done", "failed"):
                    return False
                req.duration_s = doc.get("duration_s", 0.0)
            req.status, req.result = _call(
                address, "GET", f"/v1/jobs/{req.job_id}/result")
            req.latency_s = time.perf_counter() - start - req.due
            if req.status == 200 and not req.hit:
                with lock:
                    results_by_body[req.body_index] = req.result
                    completed.append(req.body_index)
            return True

        def poller() -> None:
            pending: list[_Request] = []
            deadline = None
            while deadline is None or (
                    pending and time.perf_counter() < deadline):
                try:
                    while True:
                        item = inbox.get(timeout=0 if pending or deadline
                                         else config.SERVICE_POLL_INTERVAL_S)
                        if item is None:
                            deadline = (time.perf_counter()
                                        + config.SERVICE_DRAIN_S)
                        else:
                            pending.append(item)
                except queue.Empty:
                    pass
                still = []
                for req in pending:
                    try:
                        if not poll(req):
                            still.append(req)
                    except _TRANSPORT_ERRORS:
                        req.status = -1
                pending = still
                if pending:
                    time.sleep(config.SERVICE_POLL_INTERVAL_S)

        threads = [threading.Thread(target=sender, name="perfbench-sender"),
                   threading.Thread(target=poller, name="perfbench-poller")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        window = max(
            (r.due + r.latency_s for r in requests
             if r.latency_s is not None),
            default=seconds,
        )
        return self._outcome(requests, results_by_body, lags, window, tracer)

    def _outcome(self, requests, results_by_body, lags, window, tracer):
        done = [r for r in requests
                if r.latency_s is not None and r.status == 200]
        misses = [r for r in done if not r.hit]
        hits = [r for r in done if r.hit]
        results = []
        evaluations = []
        dispatch_s = []
        deviations = []
        for req in misses:
            doc = json.loads(req.result)["result"]
            inst = self.instances[self.body_instance[req.body_index]]
            check_schedule(inst, doc["best_sequence"], doc["completion"],
                           doc["reduction"], doc["objective"],
                           f"service job {req.job_id}")
            evaluations.append(doc["evaluations"])
            dispatch_s.append(req.duration_s)
            ref = self.refs[inst.name]
            deviations.append(100.0 * (doc["objective"] - ref) / ref)
            results.append((req.body_index, doc["objective"],
                            tuple(doc["best_sequence"])))
        for req in hits:
            require(req.result == results_by_body[req.body_index],
                    f"cache hit {req.job_id} is not byte-identical to the "
                    "result that stored it")
        require(bool(misses), "no fresh request completed")
        require(min(dispatch_s) > 0.0, "a completed job reports no duration_s")
        latencies = [r.latency_s for r in done]
        # Over the median dispatch time, so a slow phase shorter than half
        # the run barely moves it.
        evals_per_s = (statistics.fmean(evaluations)
                       / statistics.median(dispatch_s))
        failed = len(requests) - len(done)
        slo_s = config.SERVICE_SLO_MS / 1e3
        slo_missed = failed + sum(1 for v in latencies if v > slo_s)
        p90 = tail_percentile(len(latencies)) or 50.0
        record_extra = [
            Metric("latency_p90_ms", "ms",
                   1e3 * percentile(latencies, p90),
                   [1e3 * v for v in latencies], percentile=p90),
            Metric("jobs_per_s", "1/s", len(done) / window),
            Metric("slo_miss_ratio", "ratio", slo_missed / len(requests)),
            Metric("offered_rate_per_s", "1/s", config.SERVICE_RATE_PER_S),
        ]
        layer_extra: dict[str, float] = {}
        if tracer is not None:
            submits = sum(1 for r in requests if r.status != 0)
            layer_extra = {
                "service.cache.hit_ratio": len(hits) / submits,
                "service.polls_per_job": statistics.fmean(
                    r.polls for r in done),
                "service.hit.latency_p50_ms": 1e3 * statistics.median(
                    r.latency_s for r in hits) if hits else 0.0,
                "service.miss.latency_p50_ms": 1e3 * statistics.median(
                    r.latency_s for r in misses),
                "loadgen.lag_ms_p90": 1e3 * percentile(lags, 90),
            }
        return Outcome(
            latency_s=latencies,
            latency_p50_s=statistics.median(latencies),
            latency_percentile=50,
            evals_per_s=evals_per_s,
            measured_latency_p50_s=statistics.median(latencies),
            measured_evals_per_s=evals_per_s,
            # The fork, HTTP and disk path feels the host's slowdown
            # differently from the host units: dividing it out made the
            # latency less steady, so the service is reported as measured.
            slowdown=None,
            deviation_pct=statistics.fmean(deviations),
            attempted=len(requests),
            failed=failed,
            results=sorted(results),
            layer_extra=layer_extra,
            record_extra=record_extra,
        )

    @staticmethod
    def same_results(a, b, what):
        """Fresh results of the requests that completed in both phases
        match; a request lost in one phase counts in ``completed_ratio``,
        not here."""
        first = {r[0]: r[1:] for r in a}
        second = {r[0]: r[1:] for r in b}
        for body in first.keys() & second.keys():
            require(first[body] == second[body],
                    f"{what}: service results of request body {body} differ")
