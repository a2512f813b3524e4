"""The three in-process solve workloads.

Each builds one *round* of solves from the workload seed, then repeats
the round until the measuring time is up.  Repeats use the same inputs,
so every repeat must return bit-identical results (and, on gpusim, the
same modeled device time); ``deviation_pct`` comes from the first round
and is therefore fixed by the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from perfbench import config
from perfbench.calibrate import HostClock
from perfbench.checks import check_same_solve, check_schedule, require
from perfbench.layers import engine_layer, pool_layer
from perfbench.tracer import Tracer
from perfbench.workload import Outcome, Workload

__all__ = ["SolveLarge", "SolveSmallGpusim", "SolveSharded"]


@dataclass(frozen=True)
class SolveJob:
    """One ``solve()`` call and the objective it is measured against."""

    instance: Any
    method: str
    seed: int
    backend: str
    iterations: int
    reference: float
    hosts: str | None = None

    @property
    def label(self) -> str:
        return f"{self.instance.name}/{self.method}/seed{self.seed}"

    def run(self, backend: str | None = None, iterations: int | None = None):
        from repro.core.solver import solver_for

        kwargs: dict[str, Any] = {
            "iterations": iterations or self.iterations,
            "seed": self.seed,
            "grid_size": config.GRID_SIZE,
            "block_size": config.BLOCK_SIZE,
            "backend": backend or self.backend,
        }
        if kwargs["backend"] == "distributed":
            # A lost agent must fail the run, not fall back silently to a
            # local pool and be timed as a distributed solve.
            kwargs.update(hosts=self.hosts, local_fallback=False)
        return solver_for(self.instance).solve(self.method, **kwargs)


def load_references(root: Path) -> dict[str, float]:
    """Best-known objectives plus the pinned n=1000 references."""
    refs = {
        name: entry["objective"]
        for name, entry in json.loads(
            (root / config.BESTKNOWN_PATH).read_text()).items()
    }
    pinned = json.loads((root / config.REFERENCE_N1000).read_text())
    refs.update(pinned["objectives"])
    return refs


class SolveWorkload(Workload):
    """Shared set-up and measuring loop of the solve workloads."""

    #: Host units timed between two solves (see ``calibrate``); 0 reports
    #: the walls as measured.
    host_units = 2

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.jobs: list[SolveJob] = []

    def build_jobs(self, rng: np.random.Generator,
                   refs: dict[str, float]) -> list[SolveJob]:
        raise NotImplementedError

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.jobs = self.build_jobs(rng, load_references(self.root))
        self.start_resources()
        # Warm-up: one single-generation solve per distinct method.
        seen = set()
        for job in self.jobs:
            if (job.method, type(job.instance)) not in seen:
                seen.add((job.method, type(job.instance)))
                job.run(iterations=1)

    def start_resources(self) -> None:
        """Start what the round needs besides the solver (default: none)."""

    def measure(self, seconds: float, tracer: Tracer | None) -> Outcome:
        layer = engine_layer(tracer) if tracer else contextlib.nullcontext()
        with layer:
            return self._loop(seconds, tracer)

    def _loop(self, seconds: float, tracer: Tracer | None) -> Outcome:
        walls: list[list[float]] = [[] for _ in self.jobs]
        # Each wall divided by the host's slowdown just before and after
        # it (host units timed between the solves of a round), or as
        # measured when the workload times no host units.
        ref_walls: list[list[float]] = [[] for _ in self.jobs]
        first: list[Any] = []
        clock = HostClock()
        deadline = time.perf_counter() + seconds
        while not first or time.perf_counter() < deadline:
            results = []
            before = clock.sample(self.host_units)
            for job, job_walls, job_ref in zip(self.jobs, walls, ref_walls):
                start = time.perf_counter()
                result = job.run()
                job_walls.append(time.perf_counter() - start)
                after = clock.sample(self.host_units)
                job_ref.append(job_walls[-1] / clock.slowdown(before + after)
                               if self.host_units else job_walls[-1])
                before = after
                self.after_solve(tracer, start, job_walls[-1])
                results.append(result)
            for job, result in zip(self.jobs, results):
                s = result.schedule
                check_schedule(job.instance, result.best_sequence,
                               s.completion, s.reduction, result.objective,
                               job.label)
            if first:
                for job, a, b in zip(self.jobs, first, results):
                    check_same_solve(a, b, f"{job.label} repeated")
            else:
                first = results
        deviations = [100.0 * (r.objective - j.reference) / j.reference
                      for j, r in zip(self.jobs, first)]
        # Per-job medians over the repeats of identical inputs: each
        # round runs every job once, so a slow phase of the host lands
        # on a minority of every job's repeats.
        medians = [statistics.median(w) for w in ref_walls]
        measured = [statistics.median(w) for w in walls]
        evaluations = sum(r.evaluations for r in first)
        return Outcome(
            latency_s=medians,
            latency_p50_s=statistics.fmean(medians),
            latency_percentile=None,
            evals_per_s=evaluations / sum(medians),
            measured_latency_p50_s=statistics.fmean(measured),
            measured_evals_per_s=evaluations / sum(measured),
            slowdown=clock.slowdown() if self.host_units else None,
            deviation_pct=statistics.fmean(deviations),
            attempted=sum(len(w) for w in walls),
            failed=0,
            results=first,
            layer_extra=self.layer_extra(first),
        )

    def after_solve(self, tracer: Tracer | None, start: float,
                    wall: float) -> None:
        """Per-solve trace bookkeeping (default: none)."""

    def layer_extra(self, first: list[Any]) -> dict[str, float]:
        return {}


class SolveLarge(SolveWorkload):
    """Parallel SA, Biskup CDD n=1000 (h=0.4 and h=0.8), vectorized."""

    name = "solve-large"
    # Its big-array solves feel a smaller share of the host's slowdown
    # than the host units do (1.15x when the units ran 1.5x slower), so
    # dividing it out made the figures no steadier: they are reported as
    # measured.
    host_units = 0

    def build_jobs(self, rng, refs):
        from repro.instances import biskup_instance

        jobs = []
        for h in (0.4, 0.8):
            inst = biskup_instance(config.LARGE_N, h, int(rng.integers(1, 4)))
            jobs.append(SolveJob(
                inst, "parallel_sa", int(rng.integers(1, 2**31)),
                "vectorized", config.LARGE_ITERATIONS, refs[inst.name],
            ))
        return jobs


class SolveSmallGpusim(SolveWorkload):
    """Parallel SA and DPSO on the small best-known instances, gpusim."""

    name = "solve-small-gpusim"

    def build_jobs(self, rng, refs):
        from repro.instances import biskup_instance, ucddcp_instance

        jobs = []
        for n in config.SMALL_SIZES:
            cdd = biskup_instance(
                n, float(rng.choice((0.4, 0.8))), int(rng.integers(1, 4)))
            ucddcp = ucddcp_instance(n, int(rng.integers(1, 4)))
            for inst in (cdd, ucddcp):
                for method in ("parallel_sa", "parallel_dpso"):
                    jobs.append(SolveJob(
                        inst, method, int(rng.integers(1, 2**31)), "gpusim",
                        config.SMALL_ITERATIONS, refs[inst.name],
                    ))
        return jobs

    def layer_extra(self, first):
        return {"gpusim.modeled_device_s": statistics.fmean(
            r.modeled_device_time_s for r in first)}


class SolveSharded(SolveWorkload):
    """Parallel SA, Biskup CDD n=200, sharded over one local agent."""

    name = "solve-sharded"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.agent: Any = None

    def build_jobs(self, rng, refs):
        from repro.instances import biskup_instance

        # All six n=200 instances with a best-known entry, in seeded
        # order: with fewer, deviation_pct swung with the instance draw.
        jobs = []
        for k, h in rng.permutation([(k, h) for k in (1, 2, 3)
                                     for h in (0.4, 0.8)]):
            inst = biskup_instance(config.SHARDED_N, float(h), int(k))
            jobs.append(SolveJob(
                inst, "parallel_sa", int(rng.integers(1, 2**31)),
                "distributed", config.SHARDED_ITERATIONS, refs[inst.name],
            ))
        return jobs

    def start_resources(self) -> None:
        from repro.pool.agent import spawn_local_agent

        self.agent, (host, port) = spawn_local_agent(
            workers=config.AGENT_WORKERS)
        hosts = f"{host}:{port}:{config.AGENT_WORKERS}"
        self.jobs = [dataclasses.replace(j, hosts=hosts) for j in self.jobs]

    def teardown(self) -> None:
        if self.agent is not None:
            self.agent.terminate()
            self.agent.join(timeout=30)
            if self.agent.is_alive():
                self.agent.kill()
                self.agent.join()
            self.agent = None

    def measure(self, seconds: float, tracer: Tracer | None) -> Outcome:
        layer = pool_layer(tracer) if tracer else contextlib.nullcontext()
        with layer:
            outcome = self._loop(seconds, tracer)
        # Bit-identity against the in-process run of the same inputs.
        local_walls = []
        for job, sharded in zip(self.jobs, outcome.results):
            start = time.perf_counter()
            local = job.run(backend="vectorized")
            local_walls.append(time.perf_counter() - start)
            check_same_solve(sharded, local,
                             f"{job.label} distributed vs vectorized")
        if tracer is None:
            return outcome
        # The shards execute in agent processes the tracer cannot reach, so
        # the engine and kernel figures come from traced in-process solves
        # of the same inputs.
        with engine_layer(tracer):
            for job, sharded in zip(self.jobs, outcome.results):
                check_same_solve(sharded, job.run(backend="vectorized"),
                                 f"{job.label} traced vectorized")
        solves = outcome.attempted
        outcome.layer_extra.update({
            "pool.shard.merge_ms": 1e3 * statistics.fmean(
                tracer.samples["pool.shard.merge_s"]),
            "pool.shard.imbalance": statistics.fmean(
                tracer.samples["pool.shard.imbalance"]),
            # T1 / (p * Tp) over the same inputs.
            "pool.shard.parallel_eff": statistics.fmean(local_walls) / (
                config.AGENT_WORKERS * outcome.measured_latency_p50_s),
            "pool.net.frames_per_solve":
                tracer.counters["pool.net.frames"] / solves,
            "pool.net.bytes_per_solve":
                tracer.counters["pool.net.bytes"] / solves,
        })
        return outcome

    def after_solve(self, tracer, start, wall):
        if tracer is None:
            return
        shard_rt = tracer.samples["pool.shard.roundtrip_s"]
        mine = shard_rt[-config.AGENT_WORKERS:]
        require(len(mine) == config.AGENT_WORKERS,
                "expected one round trip per shard")
        tracer.sample("pool.shard.imbalance",
                      max(mine) / statistics.fmean(mine))
        tracer.sample("pool.shard.merge_s", start + wall
                      - tracer.counters["pool.last_result_t"])
