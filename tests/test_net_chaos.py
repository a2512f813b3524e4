"""Network chaos drills: every ``send`` fault kind, against stock agents, on
one- and two-host topologies — the pool must recover through the
supervision ladder and deliver identical results.

The faults are injected client-side (``send`` specs of a `FaultPlan`),
so what is being tested is the real recovery machinery: the agent's
integrity check and torn-frame handling, the client's heartbeat
deadline, reconnect backoff and requeue-on-link-failure."""

import warnings

import pytest

from repro.instances.biskup import biskup_instance
from repro.pool.agent import spawn_local_agent
from repro.pool.errors import (
    PayloadIntegrityError,
    PoisonTaskError,
    WorkerCrashError,
)
from repro.pool.hosts import HostPool
from repro.pool.net import HostSpec
from repro.pool.worker import solve_one
from repro.resilience.faults import SITE_KINDS, FaultPlan, parse_fault

SOLVE_KW = dict(
    backend="vectorized", iterations=30, grid_size=2, block_size=32, seed=7
)
#: Tight ladder so blackhole silence trips within the test budget.
POOL_KW = dict(
    heartbeat_interval_s=0.1, heartbeat_timeout_s=0.6,
    backoff_base_s=0.02, backoff_max_s=0.2,
    connect_timeout_s=2.0, io_timeout_s=30.0,
)


@pytest.fixture(autouse=True)
def _quiet_oversubscription():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@pytest.fixture(scope="module")
def agents():
    spawned = [spawn_local_agent(workers=2) for _ in range(2)]
    yield spawned
    for proc, _ in spawned:
        if proc.is_alive():
            proc.terminate()
        proc.join()


def _specs(agents, count):
    return [
        HostSpec(addr[0], addr[1], 2) for _, addr in agents[:count]
    ]


def _tasks(n=3):
    inst = biskup_instance(10, 0.4, 1)
    return [(solve_one, (inst, "parallel_sa", dict(SOLVE_KW)))] * n


def _run(pool, n=3):
    out = sorted(pool.imap_unordered(_tasks(n), labels=[f"t{i}" for i in range(n)]))
    assert [index for index, _, _ in out] == list(range(n))
    return out


class TestChaosMatrix:
    @pytest.mark.parametrize("kind", SITE_KINDS["send"])
    @pytest.mark.parametrize("n_hosts", [1, 2])
    def test_recovers_with_identical_results(self, agents, kind, n_hosts):
        baseline = _run(HostPool(_specs(agents, n_hosts), **POOL_KW))
        plan = FaultPlan([parse_fault(f"send:1:{kind}")])
        chaotic = _run(HostPool(
            _specs(agents, n_hosts), task_retries=1, fault_plan=plan,
            **POOL_KW,
        ))
        assert plan.fired, f"the {kind} fault never fired"
        assert all(status == "ok" for _, status, _ in chaotic)
        assert [
            (i, v.objective) for i, _, v in chaotic
        ] == [
            (i, v.objective) for i, _, v in baseline
        ]

    def test_fired_log_names_host_task_attempt(self, agents):
        plan = FaultPlan([parse_fault("send:0:delay")])
        _run(HostPool(
            _specs(agents, 1), task_retries=1, fault_plan=plan, **POOL_KW
        ))
        (site, task, kind, attempt, host), = plan.fired
        assert (site, kind) == ("send", "delay")
        assert host == _specs(agents, 1)[0].label
        assert task == 0 and attempt == 1


class TestBudgetAccounting:
    def test_corrupt_frame_consumes_task_retries(self, agents):
        # corrupt-frame makes the agent report an integrity failure;
        # that is a *task* failure and must burn the retry budget.
        plan = FaultPlan([parse_fault("send:0:corrupt-frame")])
        out = _run(HostPool(
            _specs(agents, 1), task_retries=0, fault_plan=plan, **POOL_KW
        ), n=1)
        (_, status, value), = out
        assert status == "error"
        assert isinstance(value, PayloadIntegrityError)

    def test_repeat_corruption_exhausts_budget_into_quarantine(self, agents):
        plan = FaultPlan([parse_fault("send:0:corrupt-frame:repeat")])
        out = _run(HostPool(
            _specs(agents, 1), task_retries=2, fault_plan=plan, **POOL_KW
        ), n=1)
        (_, status, value), = out
        assert status == "error"
        assert isinstance(value, PoisonTaskError)
        report = value.report
        assert len(report.attempts) == 3
        label = _specs(agents, 1)[0].label
        assert report.host == label
        assert all(a.outcome == "integrity" for a in report.attempts)
        assert report.to_json()["hosts"] == [label]
        assert label in report.summary()

    def test_host_loss_reruns_are_free(self, agents):
        # disconnect tears the link, not the task: with task_retries=0
        # the re-run after reconnect must still succeed.
        plan = FaultPlan([parse_fault("send:0:disconnect")])
        out = _run(HostPool(
            _specs(agents, 1), task_retries=0, fault_plan=plan, **POOL_KW
        ), n=2)
        assert plan.fired
        assert all(status == "ok" for _, status, _ in out)


class TestAgentSupervision:
    def test_agent_task_timeout_reported_as_worker_timeout(self):
        proc, addr = spawn_local_agent(workers=1, task_timeout=0.3)
        try:
            pool = HostPool([HostSpec(addr[0], addr[1], 1)], **POOL_KW)
            out = sorted(pool.imap_unordered(
                [(_sleep_forever, (30.0,))], labels=["hang"]
            ))
            (_, status, value), = out
            assert status == "error"
            assert "timed out" in str(value) or "deadline" in str(value)
        finally:
            proc.terminate()
            proc.join()

    def test_in_task_exception_travels_as_error_value(self, agents):
        pool = HostPool(_specs(agents, 1), **POOL_KW)
        out = sorted(pool.imap_unordered(
            [(_raise_value_error, ("boom",))], labels=["bad"]
        ))
        (_, status, value), = out
        assert status == "error"
        assert isinstance(value, ValueError)
        assert not isinstance(value, WorkerCrashError)
        assert str(value) == "boom"

    def test_child_crash_reported_with_host_and_exitcode(self, agents):
        pool = HostPool(_specs(agents, 1), **POOL_KW)
        out = sorted(pool.imap_unordered(
            [(_die_hard, (11,))], labels=["crash"]
        ))
        (_, status, value), = out
        assert status == "error"
        assert isinstance(value, WorkerCrashError)
        assert "died without reporting" in str(value)


def _sleep_forever(seconds):
    import time

    time.sleep(seconds)


def _raise_value_error(message):
    raise ValueError(message)


def _die_hard(code):
    import os

    os._exit(code)
