"""Tests of the benchmark itself: tracing changes no result, the traced
self times account for a generation's wall time, the seed drives the
inputs, and the run record and runner refuse what they must.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import config
from perfbench.checks import CheckFailed, check_same_solve, check_schedule
from perfbench.layers import engine_layer, layer_metrics, pool_layer
from perfbench.record import RecordMismatch, compare_records
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]

#: Share of a generation's measured wall time the traced self times may
#: miss (tracer bookkeeping between spans) at n=200.
GEN_WALL_TOLERANCE = 0.05


def _solve(instance, method, backend, **extra):
    from repro.core.solver import solver_for

    return solver_for(instance).solve(
        method, iterations=10, seed=11, grid_size=2, block_size=64,
        backend=backend, **extra)


# -- the catalogue ----------------------------------------------------------


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == config.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == config.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(config.WORKLOADS)
    why = {w["name"]: w["why"] for w in spec["workloads"]}["service-open"]
    assert f"{config.SERVICE_RATE_PER_S:g} req/s" in why
    assert f"{config.SERVICE_SLO_MS:g} ms" in why


# -- tracing leaves results identical ----------------------------------------


@pytest.mark.parametrize("backend", ["vectorized", "gpusim"])
@pytest.mark.parametrize("method", ["parallel_sa", "parallel_dpso"])
def test_engine_tracing_leaves_results_identical(backend, method):
    from repro.instances import biskup_instance, ucddcp_instance

    for instance in (biskup_instance(20, 0.4, 1), ucddcp_instance(20, 1)):
        plain = _solve(instance, method, backend)
        tracer = Tracer()
        with engine_layer(tracer):
            traced = _solve(instance, method, backend)
        check_same_solve(plain, traced, f"{instance.name} {method}")
        assert tracer.counters["engine.generations"] == 10
        assert tracer.calls("kernel.fitness") == 11
    # The patches are gone afterwards.
    from repro.core.parallel_sa import ParallelSAStrategy
    assert "perfbench" not in ParallelSAStrategy.generation.__module__


def test_pool_tracing_leaves_results_identical():
    from repro.instances import biskup_instance
    from repro.pool.agent import spawn_local_agent

    agent, (host, port) = spawn_local_agent(workers=2)
    try:
        hosts = f"{host}:{port}:2"
        instance = biskup_instance(30, 0.8, 2)
        plain = _solve(instance, "parallel_sa", "distributed", hosts=hosts,
                       local_fallback=False)
        tracer = Tracer()
        with pool_layer(tracer):
            traced = _solve(instance, "parallel_sa", "distributed",
                            hosts=hosts, local_fallback=False)
    finally:
        agent.terminate()
        agent.join(timeout=30)
    check_same_solve(plain, traced, "distributed")
    check_same_solve(plain, _solve(instance, "parallel_sa", "vectorized"),
                     "distributed vs vectorized")
    assert len(tracer.samples["pool.shard.roundtrip_s"]) == 2
    assert tracer.counters["pool.net.frames"] >= 6  # hello/task/result


# -- self times account for the generation wall ------------------------------


def test_traced_self_times_sum_to_generation_wall():
    from repro.core.parallel_sa import ParallelSAStrategy
    from repro.instances import biskup_instance

    tracer = Tracer(keep_spans=True)
    windows: list[tuple[float, float]] = []
    with engine_layer(tracer):
        traced_generation = ParallelSAStrategy.generation

        def timed(self, backend, cfg, it):
            start = time.perf_counter()
            traced_generation(self, backend, cfg, it)
            windows.append((start, time.perf_counter()))

        with tracer.patch(ParallelSAStrategy, "generation", timed):
            _solve(biskup_instance(200, 0.4, 1), "parallel_sa", "vectorized")
    assert len(windows) == 10
    wall = sum(end - start for start, end in windows)
    inside = sum(
        self_s for _, _, s, e, self_s in tracer.spans
        if any(lo <= s and e <= hi for lo, hi in windows)
    )
    assert inside <= wall
    assert inside >= (1.0 - GEN_WALL_TOLERANCE) * wall, (inside, wall)
    figures = layer_metrics(tracer, {})
    kernel_share = sum(figures[f"kernels.{k}.share"] for k in config.KERNELS)
    loop_share = (figures["engine.loop_self_ms_per_gen"]
                  / figures["engine.gen_ms"])
    assert 0.9 < kernel_share + loop_share <= 1.0 + 1e-9
    assert figures["kernels.launches_per_gen"] == 4
    assert figures["rng.draws_per_gen"] == 128 * (4 + 3 + 1)


# -- the seed drives the inputs ----------------------------------------------


def _inputs(name: str, seed: int):
    from perfbench.run import make_workload
    from perfbench.solves import load_references

    workload = make_workload(name, seed, ROOT)
    if name == "service-open":
        workload.build_inputs()
        requests, draws = workload._schedule(5.0)
        return ([(r.due, r.body_index) for r in requests], draws,
                workload.bodies)
    rng = np.random.default_rng([seed, 1])
    jobs = workload.build_jobs(rng, load_references(ROOT))
    return [(j.instance.name, j.method, j.seed) for j in jobs]


@pytest.mark.parametrize("name", config.WORKLOADS)
def test_seed_changes_inputs(name):
    assert _inputs(name, 1) == _inputs(name, 1)
    assert _inputs(name, 1) != _inputs(name, 2)


# -- checks, record, runner --------------------------------------------------


def test_wrong_objective_fails_the_check():
    from repro.instances import biskup_instance

    instance = biskup_instance(20, 0.4, 1)
    result = _solve(instance, "parallel_sa", "vectorized")
    s = result.schedule
    check_schedule(instance, s.sequence, s.completion, s.reduction,
                   s.objective, "ok")
    with pytest.raises(CheckFailed):
        check_schedule(instance, s.sequence, s.completion, s.reduction,
                       s.objective + 1.0, "tampered")


def test_service_phases_compare_only_requests_done_in_both():
    from perfbench.service_load import ServiceOpen

    untraced = [(1, 10.0, (0, 1)), (2, 12.0, (1, 0))]
    # Request body 2 was refused in the traced phase: not a wrong answer.
    ServiceOpen.same_results(untraced, untraced[:1], "lost request")
    with pytest.raises(CheckFailed):
        ServiceOpen.same_results(untraced, [(1, 11.0, (0, 1))], "changed")


def test_records_from_different_cpu_counts_are_refused():
    def record(nproc, value):
        return {"workload": "solve-large", "machine": {"nproc": nproc},
                "metrics": {"latency_p50_ms": {"value": value}}}

    assert compare_records(record(2, 10.0), record(2, 12.0))[
        "latency_p50_ms"]["change"] == pytest.approx(0.2)
    with pytest.raises(RecordMismatch):
        compare_records(record(2, 10.0), record(8, 10.0))


def test_runner_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service-open",
         "--seed", "3", "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert set(last["metrics"]) == set(config.PER_LAYER)
    assert last["metrics"]["service.journal.appends_per_job"]["value"] > 0
    assert last["metrics"]["pool.dispatch.run_ms"]["value"] > 0


def test_tracer_counts_exactly_across_threads():
    import threading

    tracer = Tracer()
    threads_n, spans_n = 8, 500

    def work():
        for _ in range(spans_n):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    tracer.count("hits")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert tracer.counters["hits"] == threads_n * spans_n
    assert tracer.calls("outer") == tracer.calls("inner") == threads_n * spans_n
    # Per-thread stacks: an outer span's self time never goes negative.
    assert 0.0 <= tracer.self_s("outer") <= tracer.total_s("outer")
