"""Pinned workload settings and the metric catalogue.

Every number here is part of the benchmark's definition: changing one is
a benchmark change (its own PR, claiming no gain), never part of a PR
that claims a speed-up.  ``BENCHMARK.json`` states the service's offered
rate and latency limit in its ``why`` text; keep the two in step (a test
checks it).
"""

from __future__ import annotations

#: Paper geometry: 4 blocks x 192 threads = 768 chains.
GRID_SIZE = 4
BLOCK_SIZE = 192

#: Cold set-ups (each in a fresh interpreter) per run; ``setup_s`` is
#: their median.
SETUP_REPS = 3

#: Median ``calibrate.host_unit_s()`` on the reference host, a 2-vCPU VM
#: (Python 3.11, NumPy 2.4) in a quiet phase.  Gated times are reported
#: as if the host ran at this speed.
HOST_UNIT_REF_S = 0.006
#: Host units each cold set-up times after it is done.
SETUP_HOST_UNITS = 20

# -- solve-large: parallel SA, Biskup CDD n=1000, vectorized --------------
LARGE_N = 1000
LARGE_ITERATIONS = 20

# -- solve-small-gpusim: SA + DPSO, n in {10, 20, 50}, gpusim -------------
SMALL_SIZES = (10, 20, 50)
#: Short solves, so a run repeats every job several times.
SMALL_ITERATIONS = 30

# -- solve-sharded: parallel SA, Biskup CDD n=200, one 2-worker agent -----
SHARDED_N = 200
SHARDED_ITERATIONS = 100
AGENT_WORKERS = 2

# -- service-open: open loop against an in-process SchedulingService ------
SERVICE_N = 20
SERVICE_ITERATIONS = 20
#: Offered load in requests per second (fresh solves and resubmissions).
#: Keeps the one worker about a third busy on a 2-CPU host: at 13 req/s
#: (two-thirds busy) a slow phase of a shared host saturated it.
SERVICE_RATE_PER_S = 6.0
#: Share of requests that resubmit a completed request (cache hits).  Kept
#: away from 0.5 so the overall median falls inside the miss population
#: instead of on the gap between hits and misses.
SERVICE_HIT_SHARE = 0.3
#: Latency limit for ``slo_miss_ratio``.
SERVICE_SLO_MS = 1000.0
#: Poller pause between passes over the outstanding jobs.
SERVICE_POLL_INTERVAL_S = 0.005
#: How long the run waits for outstanding jobs after the last send.
SERVICE_DRAIN_S = 30.0

#: Best-known objectives of the instances with an entry (n <= 200).
BESTKNOWN_PATH = "data/bestknown.json"
#: Pinned n=1000 reference objectives (no best-known entry exists).
REFERENCE_N1000 = "perfbench/reference_n1000.json"
#: Prefix of the service's scratch directory (inside the checkout,
#: git-ignored, removed at teardown).
WORK_PREFIX = ".perfbench_work-"

WORKLOADS = ("solve-large", "solve-small-gpusim", "solve-sharded",
             "service-open")

#: End-to-end metrics: every workload reports all of them (gated).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "evals_per_s": "1/s",
    "deviation_pct": "%",
    "rss_peak_mb": "MB",
    "completed_ratio": "ratio",
}

#: Kernel buckets reported per launch (see ``layers.kernel_bucket``).
KERNELS = ("perturbation", "fitness", "acceptance", "reduction",
           "dpso_update", "dpso_pbest")

#: Per-layer metrics of a traced run (reported, not gated).
PER_LAYER = {
    "engine.gen_ms": "ms",
    "engine.prepare_ms": "ms",
    "engine.loop_self_ms_per_gen": "ms",
    "engine.finalize_ms": "ms",
    **{f"kernels.{k}.ms_per_launch": "ms" for k in KERNELS},
    **{f"kernels.{k}.share": "ratio" for k in KERNELS},
    "kernels.launches_per_gen": "count",
    "kernels.fitness.bytes_computed_per_launch": "B",
    "seqopt.closed_form_ms_per_launch": "ms",
    "seqopt.gather_ms_per_launch": "ms",
    "permutation.sample_distinct_ms_per_gen": "ms",
    "permutation.fisher_yates_ms_per_gen": "ms",
    "rng.draws_per_gen": "count",
    "gpusim.launch_overhead_ms": "ms",
    "gpusim.modeled_device_s": "modeled_s",
    "pool.shard.roundtrip_ms": "ms",
    "pool.shard.merge_ms": "ms",
    "pool.shard.pickle_bytes": "B",
    "pool.shard.imbalance": "ratio",
    "pool.shard.parallel_eff": "ratio",
    "pool.net.frames_per_solve": "count",
    "pool.net.bytes_per_solve": "B",
    "pool.dispatch.run_ms": "ms",
    "pool.dispatch.overhead_ms": "ms",
    "service.admission_ms": "ms",
    "service.cache.load_ms": "ms",
    "service.cache.store_ms": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.journal.append_ms": "ms",
    "service.journal.appends_per_job": "count",
    "service.queue_wait_ms": "ms",
    "service.handler_ms.submit": "ms",
    "service.handler_ms.status": "ms",
    "service.handler_ms.result": "ms",
    "service.polls_per_job": "count",
    "service.hit.latency_p50_ms": "ms",
    "service.miss.latency_p50_ms": "ms",
    "loadgen.lag_ms_p90": "ms",
    "trace.overhead_pct": "%",
}
