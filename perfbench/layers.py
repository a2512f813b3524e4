"""Which public callables each layer is traced at, and the per-layer
figures derived from the spans.

Three patch groups, each a context manager over a :class:`Tracer`:

* :func:`engine_layer` -- the ensemble driver's strategy hooks, the two
  in-process execution backends (``ExecutionBackend.launch`` is where
  kernels are bucketed by ``Kernel.name``), the closed form the fitness
  kernel calls, and the two permutation primitives of the perturbation
  kernel.
* :func:`pool_layer` -- the client side of the distributed pool: the
  RPN1 frame functions :class:`repro.pool.hosts.HostPool` calls.
* :func:`service_layer` -- the HTTP handler, submit/admission, the result
  cache, the journal, the dispatcher queue and the supervised dispatch.

:func:`layer_metrics` turns one tracer into every per-layer metric named
in ``BENCHMARK.json``; a layer the workload does not run reads 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import statistics
import time
from typing import Any, Iterator

from perfbench.config import KERNELS
from perfbench.tracer import Tracer

__all__ = [
    "engine_layer",
    "pool_layer",
    "service_layer",
    "layer_metrics",
]


def kernel_bucket(name: str) -> str:
    """Report bucket of a kernel: ``Kernel.name`` prefixes map onto
    :data:`KERNELS` (``fitness_cdd``, ``fitness_ucddcp_tex`` -> ``fitness``)."""
    for bucket in KERNELS:
        if name.startswith(bucket):
            return bucket
    return name


def _fitness_bytes(config: Any, args: tuple) -> int:
    """Bytes one fitness launch moves, computed from array sizes.

    Sequence reads (int32), one float64 gather per per-job field, and the
    float64 fitness write.  Caches and the closed form's temporaries are
    ignored, so the figure is labelled *computed*.
    """
    seqs = args[0].array
    threads = config.total_threads
    n = seqs.shape[1]
    fields = len(args) - 2  # everything between the sequences and out
    return threads * n * seqs.itemsize + fields * threads * n * 8 + threads * 8


# -- engine, kernels, seqopt, permutation, gpusim ------------------------


@contextlib.contextmanager
def engine_layer(tracer: Tracer) -> Iterator[None]:
    import repro.core.engine.driver as driver
    import repro.kernels.fitness as fitness
    import repro.kernels.perturbation as perturbation
    from repro.core.engine.backends import GpusimBackend, VectorizedBackend
    from repro.core.parallel_dpso import ParallelDPSOStrategy
    from repro.core.parallel_sa import ParallelSAStrategy

    def generation(original):
        def traced(self, backend, cfg, it):
            rng = backend.device.rng if hasattr(backend, "device") \
                else backend.rng
            before = rng.counter
            with tracer.span("engine.generation"):
                original(self, backend, cfg, it)
            tracer.count("engine.generations")
            tracer.count(
                "rng.draws", (rng.counter - before) * cfg.total_threads
            )
        return traced

    def launch(original, modeled: bool):
        def traced(self, kern, config, *args):
            bucket = kernel_bucket(kern.name)
            body_name = f"kernel_body.{bucket}"
            body_s = [0.0]
            fn = kern.fn

            def body(*a, **k):
                start = time.perf_counter()
                try:
                    with tracer.span(body_name):
                        return fn(*a, **k)
                finally:
                    body_s[0] = time.perf_counter() - start

            if tracer.enclosing("engine.") == "engine.generation":
                tracer.count("kernels.launches_in_gen")
            if bucket == "fitness":
                tracer.count(
                    "kernels.fitness.bytes", _fitness_bytes(config, args)
                )
            start = time.perf_counter()
            with tracer.span(f"kernel.{bucket}"):
                original(self, dataclasses.replace(kern, fn=body), config,
                         *args)
            if modeled:
                tracer.count(
                    "gpusim.overhead_s",
                    time.perf_counter() - start - body_s[0],
                )
                tracer.count("gpusim.launches")
        return traced

    with contextlib.ExitStack() as stack:
        enter = stack.enter_context
        for cls in (ParallelSAStrategy, ParallelDPSOStrategy):
            for hook in ("prepare", "allocate", "initialize", "finalize"):
                enter(tracer.span_patch(cls, hook, f"engine.{hook}"))
            enter(tracer.patch(cls, "generation", generation(cls.generation)))
        enter(tracer.span_patch(
            driver, "initial_population", "engine.init_population"))
        enter(tracer.span_patch(driver, "assemble_result", "engine.assemble"))
        for cls, modeled in ((VectorizedBackend, False), (GpusimBackend, True)):
            enter(tracer.span_patch(cls, "open", "engine.open"))
            enter(tracer.span_patch(cls, "upload", "engine.upload"))
            enter(tracer.span_patch(cls, "download", "engine.download"))
            enter(tracer.patch(cls, "launch", launch(cls.launch, modeled)))
        for name in ("batched_cdd_from_gathered",
                     "batched_ucddcp_from_gathered"):
            enter(tracer.span_patch(fitness, name, "seqopt.closed_form"))
        enter(tracer.span_patch(
            perturbation, "batched_sample_distinct",
            "permutation.sample_distinct"))
        enter(tracer.span_patch(
            perturbation, "batched_partial_fisher_yates",
            "permutation.fisher_yates"))
        yield


# -- pool: client side of the distributed transport ----------------------


@contextlib.contextmanager
def pool_layer(tracer: Tracer) -> Iterator[None]:
    import repro.pool.hosts as hosts
    from repro.pool import net

    header = len(net.encode_frame(net.FRAME_PING))
    sent: dict[int, float] = {}

    def frame_out(nbytes: int) -> None:
        tracer.count("pool.net.frames")
        tracer.count("pool.net.bytes", nbytes)

    def encode_frame(original):
        def traced(kind, payload=b"", task_id=net.CONTROL_TASK_ID,
                   digest=None):
            frame = original(kind, payload, task_id, digest)
            if kind == net.FRAME_TASK:
                sent[task_id] = time.perf_counter()
                tracer.count("pool.shard.pickle_bytes", len(payload))
            frame_out(len(frame))
            return frame
        return traced

    def send_frame(original):
        def traced(sock, kind, payload=b"", task_id=net.CONTROL_TASK_ID,
                   digest=None):
            original(sock, kind, payload, task_id, digest)
            frame_out(header + len(payload))
        return traced

    def send_json_frame(original):
        def traced(sock, kind, fields, task_id=net.CONTROL_TASK_ID):
            original(sock, kind, fields, task_id)
            frame_out(header + len(
                json.dumps(fields, sort_keys=True).encode("utf-8")))
        return traced

    def read_frame(original):
        def traced(sock):
            frame = original(sock)
            if frame is not None:
                frame_out(header + len(frame.payload))
                if frame.kind == net.FRAME_RESULT_OK:
                    now = time.perf_counter()
                    tracer.sample(
                        "pool.shard.roundtrip_s", now - sent[frame.task_id]
                    )
                    tracer.count(
                        "pool.shard.pickle_bytes", len(frame.payload))
                    tracer.counters["pool.last_result_t"] = now
            return frame
        return traced

    with contextlib.ExitStack() as stack:
        for name, make in (
            ("encode_frame", encode_frame), ("send_frame", send_frame),
            ("send_json_frame", send_json_frame), ("read_frame", read_frame),
        ):
            stack.enter_context(
                tracer.patch(hosts, name, make(getattr(hosts, name))))
        yield


# -- service + per-job dispatch -------------------------------------------


@contextlib.contextmanager
def service_layer(tracer: Tracer) -> Iterator[None]:
    """Patch the service stack; construct the service *inside* the block
    (the dispatcher captures its runner at construction)."""
    import repro.service.api as api
    from repro.pool.dispatch import SupervisedDispatch
    from repro.service.cache import ResultCache
    from repro.service.journal import JobJournal

    enqueued: dict[str, float] = {}
    base = api.JobDispatcher

    class TracedDispatcher(base):  # type: ignore[misc, valid-type]
        def __init__(self, runner, *args, **kwargs):
            def traced_runner(job, dispatch, seq):
                tracer.sample(
                    "service.queue_wait_s",
                    time.perf_counter() - enqueued.pop(job.id),
                )
                runner(job, dispatch, seq)
            super().__init__(traced_runner, *args, **kwargs)

        def try_enqueue(self, job):
            # Stamped before the put: the worker may dequeue at once.
            enqueued[job.id] = time.perf_counter()
            admitted = super().try_enqueue(job)
            if not admitted:
                enqueued.pop(job.id, None)
            return admitted

    def dispatch_run(original):
        def traced(self, fn, args, *rest, **kwargs):
            start = time.perf_counter()
            with tracer.span("pool.dispatch.run"):
                status, value = original(self, fn, args, *rest, **kwargs)
            run_s = time.perf_counter() - start
            tracer.sample("pool.dispatch.run_s", run_s)
            if status == "ok":
                tracer.sample(
                    "pool.dispatch.overhead_s", run_s - value.wall_time_s)
            return status, value
        return traced

    with contextlib.ExitStack() as stack:
        enter = stack.enter_context
        enter(tracer.patch(api, "JobDispatcher", TracedDispatcher))
        enter(tracer.patch(
            SupervisedDispatch, "run", dispatch_run(SupervisedDispatch.run)))
        enter(tracer.span_patch(api.SchedulingService, "submit",
                                "service.submit"))
        enter(tracer.span_patch(ResultCache, "load", "service.cache.load"))
        enter(tracer.span_patch(ResultCache, "store", "service.cache.store"))
        for hook in ("record_submitted", "record_running", "record_done",
                     "record_failed", "record_interrupted"):
            enter(tracer.span_patch(JobJournal, hook,
                                    "service.journal.append"))
        yield


def handler_routes(tracer: Tracer, handler_cls: type) -> contextlib.ExitStack:
    """Span every HTTP request by route on the server's handler class."""

    def route_of(path: str, method: str) -> str:
        if method == "POST":
            return "submit"
        return "result" if path.endswith("/result") else "status"

    def wrap(original, method):
        def traced(self):
            with tracer.span(
                f"service.handler.{route_of(self.path, method)}"
            ):
                original(self)
        return traced

    stack = contextlib.ExitStack()
    stack.enter_context(tracer.patch(
        handler_cls, "do_GET", wrap(handler_cls.do_GET, "GET")))
    stack.enter_context(tracer.patch(
        handler_cls, "do_POST", wrap(handler_cls.do_POST, "POST")))
    return stack


# -- figures ------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer figure, from spans plus the workload's ``extra``
    figures (latency splits, modeled time, shard shape, trace overhead).
    Figures of layers the workload did not run read 0."""
    t, c, s = tracer.total_s, tracer.counters, tracer.samples
    gens = c.get("engine.generations", 0.0)
    solves = tracer.calls("engine.allocate")
    fitness_launches = tracer.calls("kernel.fitness")
    loop_s = t("engine.generation") + t("engine.initialize")
    out: dict[str, float] = {
        "engine.gen_ms": 1e3 * _ratio(t("engine.generation"), gens),
        "engine.prepare_ms": 1e3 * _ratio(
            sum(t(f"engine.{p}") for p in (
                "prepare", "open", "allocate", "init_population", "upload",
                "initialize")),
            solves),
        "engine.loop_self_ms_per_gen": 1e3 * _ratio(
            tracer.self_s("engine.generation"), gens),
        "engine.finalize_ms": 1e3 * _ratio(
            t("engine.download") + t("engine.finalize")
            + t("engine.assemble"),
            solves),
    }
    for bucket in KERNELS:
        name = f"kernel.{bucket}"
        out[f"kernels.{bucket}.ms_per_launch"] = 1e3 * _ratio(
            t(name), tracer.calls(name))
        out[f"kernels.{bucket}.share"] = _ratio(t(name), loop_s)
    out["kernels.launches_per_gen"] = _ratio(
        c.get("kernels.launches_in_gen", 0.0), gens)
    out["kernels.fitness.bytes_computed_per_launch"] = _ratio(
        c.get("kernels.fitness.bytes", 0.0), fitness_launches)
    out["seqopt.closed_form_ms_per_launch"] = 1e3 * _ratio(
        t("seqopt.closed_form"), fitness_launches)
    out["seqopt.gather_ms_per_launch"] = 1e3 * _ratio(
        tracer.self_s("kernel_body.fitness"), fitness_launches)
    out["permutation.sample_distinct_ms_per_gen"] = 1e3 * _ratio(
        t("permutation.sample_distinct"), gens)
    out["permutation.fisher_yates_ms_per_gen"] = 1e3 * _ratio(
        t("permutation.fisher_yates"), gens)
    out["rng.draws_per_gen"] = _ratio(c.get("rng.draws", 0.0), gens)
    out["gpusim.launch_overhead_ms"] = 1e3 * _ratio(
        c.get("gpusim.overhead_s", 0.0), c.get("gpusim.launches", 0.0))

    roundtrips = s.get("pool.shard.roundtrip_s", [])
    out["pool.shard.roundtrip_ms"] = 1e3 * _mean(roundtrips)
    out["pool.shard.pickle_bytes"] = _ratio(
        c.get("pool.shard.pickle_bytes", 0.0), len(roundtrips))

    out["pool.dispatch.run_ms"] = 1e3 * _mean(s.get("pool.dispatch.run_s", []))
    out["pool.dispatch.overhead_ms"] = 1e3 * _mean(
        s.get("pool.dispatch.overhead_s", []))

    submits = tracer.calls("service.submit")
    out["service.admission_ms"] = 1e3 * _ratio(
        tracer.self_s("service.submit"), submits)
    for op in ("load", "store"):
        name = f"service.cache.{op}"
        out[f"service.cache.{op}_ms"] = 1e3 * _ratio(
            t(name), tracer.calls(name))
    appends = tracer.calls("service.journal.append")
    out["service.journal.append_ms"] = 1e3 * _ratio(
        t("service.journal.append"), appends)
    out["service.journal.appends_per_job"] = _ratio(appends, submits)
    out["service.queue_wait_ms"] = 1e3 * _mean(
        s.get("service.queue_wait_s", []))
    for route in ("submit", "status", "result"):
        name = f"service.handler.{route}"
        out[f"service.handler_ms.{route}"] = 1e3 * _ratio(
            tracer.self_s(name), tracer.calls(name))
    out.update(extra)
    return out
