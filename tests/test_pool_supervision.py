"""Pool supervision: the watchdog, in-pool retries, poison quarantine,
result integrity, and their wiring into solve_many and the runner.

The pool-level contracts under test (docs/parallel.md "Supervision &
chaos testing"):

* a task exceeding ``task_timeout`` is killed and surfaces as
  :class:`WorkerTimeoutError` while its siblings keep running;
* an abnormal attempt (crash/timeout/corrupt payload) is retried in a
  fresh child up to ``task_retries`` times; a task failing *every*
  attempt is quarantined with a structured :class:`PoisonTaskReport`;
* results cross the pipe as (pickle blob, sha256 digest) and a mismatch
  surfaces as :class:`PayloadIntegrityError` instead of a wrong answer.
"""

import json
import time
import warnings

import pytest

from repro.gpusim.errors import classify_error
from repro.pool.errors import (
    PayloadIntegrityError,
    PoisonTaskError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.pool.executor import ProcessPool
from repro.resilience.faults import (
    SITE_KINDS,
    FaultPlan,
    FaultSpec,
    Firing,
    parse_fault,
)


def _pool(**kw):
    """A ProcessPool with the 1-core oversubscription warning silenced
    (the test container has one CPU; multi-worker pools are the point)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return ProcessPool(**kw)


# Module-level tasks: picklable under every start method (incl. spawn).
def _ok_task(v):
    return v


def _sleep_task(v):
    time.sleep(60)
    return v


class TestWatchdog:
    def test_hung_task_killed_sibling_unaffected(self):
        pool = _pool(workers=2, task_timeout=0.5)
        results = dict()
        start = time.monotonic()
        for index, status, value in pool.imap_unordered(
            [(_sleep_task, (1,)), (_ok_task, (2,))], labels=["hog", "quick"]
        ):
            results[index] = (status, value)
        elapsed = time.monotonic() - start
        assert results[1] == ("ok", 2)
        status, value = results[0]
        assert status == "error"
        assert isinstance(value, WorkerTimeoutError)
        assert "hog" in str(value) and "deadline" in str(value)
        # The hog was reaped at its deadline, not waited out (60s task).
        assert elapsed < 30

    def test_timeout_is_a_crash_subtype_and_transient(self):
        err = WorkerTimeoutError("x")
        assert isinstance(err, WorkerCrashError)
        assert classify_error(err) == "transient"

    def test_spawn_context_timeout(self):
        # Supervision must work under spawn too: deadlines are parent-side
        # state, never shipped through the child bootstrap.
        pool = ProcessPool(workers=1, context="spawn", task_timeout=1.0)
        [(index, status, value)] = list(
            pool.imap_unordered([(_sleep_task, (3,))])
        )
        assert status == "error"
        assert isinstance(value, WorkerTimeoutError)

    def test_hang_fault_retried_to_success(self):
        # The transient shape: the first attempt hangs, the watchdog reaps
        # it, the retry runs clean.
        plan = FaultPlan([FaultSpec("task", 0, "hang")])
        pool = ProcessPool(workers=1, task_timeout=0.5, task_retries=1,
                           fault_plan=plan)
        assert list(pool.imap_unordered([(_ok_task, (7,))])) == [(0, "ok", 7)]
        assert plan.fired == [Firing("task", 0, "hang", 1)]

    def test_hang_fault_without_timeout_rejected(self):
        with pytest.raises(ValueError, match="task_timeout"):
            ProcessPool(fault_plan=FaultPlan([FaultSpec("task", 0, "hang")]))

    def test_timeout_validated(self):
        with pytest.raises(ValueError, match="task_timeout"):
            ProcessPool(task_timeout=0.0)
        with pytest.raises(ValueError, match="task_retries"):
            ProcessPool(task_retries=-1)


class TestRetriesAndQuarantine:
    def test_transient_kill_retried_to_success(self):
        plan = FaultPlan([FaultSpec("task", 0, "kill")])
        pool = ProcessPool(workers=1, task_retries=1, fault_plan=plan,
                           retry_delay=lambda attempt: 0.01)
        assert list(pool.imap_unordered([(_ok_task, (9,))])) == [(0, "ok", 9)]
        assert plan.fired == [Firing("task", 0, "kill", 1)]

    def test_poison_task_quarantined_after_k_failures(self):
        plan = FaultPlan([FaultSpec("task", 0, "kill", repeat=True)])
        pool = ProcessPool(workers=1, task_retries=2, fault_plan=plan)
        [(index, status, value)] = list(
            pool.imap_unordered([(_ok_task, (9,))], labels=["victim"])
        )
        assert status == "error"
        assert isinstance(value, PoisonTaskError)
        report = value.report
        assert report.label == "victim"
        assert len(report.attempts) == 3
        assert [a.attempt for a in report.attempts] == [1, 2, 3]
        assert all(a.outcome == "crash" for a in report.attempts)
        # The injected kill exits with code 77: captured as evidence.
        assert all(a.exitcode == 77 for a in report.attempts)
        assert plan.fired == [
            Firing("task", 0, "kill", attempt) for attempt in (1, 2, 3)
        ]

    def test_poison_report_json_and_summary(self):
        plan = FaultPlan([FaultSpec("task", 0, "kill", repeat=True)])
        pool = ProcessPool(workers=1, task_retries=1, fault_plan=plan)
        [(_, _, value)] = list(
            pool.imap_unordered([(_ok_task, (9,))], labels=["bad"])
        )
        blob = value.report.to_json()
        assert blob["label"] == "bad"
        assert blob["consecutive_failures"] == 2
        assert len(blob["attempts"]) == 2
        json.dumps(blob)  # serializable as-is
        assert "2 consecutive failed attempts" in str(value)

    def test_poison_is_fatal_not_transient(self):
        # Retrying a quarantined task is exactly what quarantine prevents.
        plan = FaultPlan([FaultSpec("task", 0, "kill", repeat=True)])
        pool = ProcessPool(workers=1, task_retries=1, fault_plan=plan)
        [(_, _, value)] = list(pool.imap_unordered([(_ok_task, (9,))]))
        assert classify_error(value) == "fatal"

    def test_siblings_complete_while_task_is_quarantined(self):
        plan = FaultPlan([FaultSpec("task", 1, "kill", repeat=True)])
        pool = _pool(workers=2, task_retries=2, fault_plan=plan)
        tasks = [(_ok_task, (i,)) for i in range(4)]
        results = {i: (s, v) for i, s, v in pool.imap_unordered(tasks)}
        assert results[0] == ("ok", 0)
        assert results[2] == ("ok", 2)
        assert results[3] == ("ok", 3)
        assert isinstance(results[1][1], PoisonTaskError)

    def test_zero_retries_surfaces_raw_error(self):
        # The pre-supervision contract: a single-attempt pool yields the
        # raw WorkerCrashError, never a PoisonTaskError wrapper.
        plan = FaultPlan([FaultSpec("task", 0, "kill")])
        pool = ProcessPool(workers=1, fault_plan=plan)
        [(_, status, value)] = list(pool.imap_unordered([(_ok_task, (1,))]))
        assert status == "error"
        assert type(value) is WorkerCrashError

    def test_in_task_exception_is_not_retried(self):
        # Ordinary exceptions are the task's own result; retrying them
        # would burn the budget re-raising deterministically.
        pool = ProcessPool(workers=1, task_retries=3)
        [(_, status, value)] = list(
            pool.imap_unordered([(_raise_task, ())])
        )
        assert status == "error"
        assert isinstance(value, ValueError)
        assert "deliberate" in str(value)


class TestResultIntegrity:
    def test_corrupt_payload_detected(self):
        plan = FaultPlan([FaultSpec("task", 0, "corrupt-payload")])
        pool = ProcessPool(workers=1, fault_plan=plan)
        [(_, status, value)] = list(
            pool.imap_unordered([(_ok_task, (11,))], labels=["flip"])
        )
        assert status == "error"
        assert isinstance(value, PayloadIntegrityError)
        assert "digest" in str(value) and "flip" in str(value)

    def test_corrupt_payload_retry_recovers_true_value(self):
        plan = FaultPlan([FaultSpec("task", 0, "corrupt-payload")])
        pool = ProcessPool(workers=1, task_retries=1, fault_plan=plan)
        assert list(pool.imap_unordered([(_ok_task, (11,))])) == [
            (0, "ok", 11)
        ]

    def test_integrity_error_is_crash_subtype(self):
        assert issubclass(PayloadIntegrityError, WorkerCrashError)
        assert classify_error(PayloadIntegrityError("x")) == "transient"


class TestFaultPlanGrammar:
    """The ``task`` site of the one grammar (the whole table is in
    tests/test_resilience.py)."""

    def test_parse_simple(self):
        spec = parse_fault("task:1:kill")
        assert (spec.site, spec.kind, spec.at, spec.repeat) == (
            "task", "kill", 1, False)

    def test_parse_repeat(self):
        spec = parse_fault("task:2:corrupt-payload:repeat")
        assert (spec.site, spec.kind, spec.at, spec.repeat) == (
            "task", "corrupt-payload", 2, True)

    # The old KIND:TASK spellings are not a compatibility form.
    @pytest.mark.parametrize("bad", [
        "kill", "kill:x", "kill:1:always", "teleport:1", "kill:-1",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_fault(bad)

    def test_spec_validates_kind_and_index(self):
        with pytest.raises(ValueError, match="task fault kind"):
            FaultSpec(site="task", at=0, kind="oom")
        with pytest.raises(ValueError, match=">= 0"):
            FaultSpec(site="task", at=-2, kind="kill")
        assert set(SITE_KINDS["task"]) == {"kill", "hang", "corrupt-payload"}

    def test_directive_fires_first_attempt_only_without_repeat(self):
        plan = FaultPlan([FaultSpec("task", 3, "kill")])
        assert plan.directive("task", 3, 1) == "kill"
        assert plan.directive("task", 3, 2) is None
        assert plan.directive("task", 2, 1) is None
        assert plan.directive("send", 3, 1) is None
        assert plan.fired == [Firing("task", 3, "kill", 1)]

    def test_labels_must_match_task_count(self):
        pool = ProcessPool(workers=1)
        with pytest.raises(ValueError, match="labels"):
            list(pool.imap_unordered([(_ok_task, (1,))], labels=["a", "b"]))


def _raise_task():
    raise ValueError("deliberate in-task failure")


class TestSolveManySupervision:
    """The batch facade degrades gracefully under injected pool faults."""

    KW = dict(backend="vectorized", iterations=15, grid_size=2, block_size=8,
              seed=3)

    def _instances(self):
        from repro.instances.biskup import biskup_instance

        return [biskup_instance(10, h, 1) for h in (0.2, 0.4, 0.6)]

    def _solve_many(self, **kw):
        from repro.core.solver import solve_many

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return solve_many(self._instances(), "parallel_sa", workers=2,
                              **self.KW, **kw)

    def test_crash_degrades_slot_with_structured_kind(self):
        items = self._solve_many(
            fault_plan=FaultPlan([FaultSpec("task", 1, "kill")]))
        assert [it.ok for it in items] == [True, False, True]
        assert items[1].error.error_type == "worker_crash"

    def test_poison_slot_carries_quarantine_report(self):
        items = self._solve_many(
            task_retries=2,
            fault_plan=FaultPlan([FaultSpec("task", 1, "kill", repeat=True)]),
        )
        assert [it.ok for it in items] == [True, False, True]
        error = items[1].error
        assert error.error_type == "poison_task"
        assert error.report["consecutive_failures"] == 3
        assert error.report["label"] == self._instances()[1].name

    def test_retried_batch_matches_clean_batch(self):
        clean = self._solve_many()
        chaotic = self._solve_many(
            task_retries=1,
            fault_plan=FaultPlan([FaultSpec("task", 0, "kill")]))
        assert all(it.ok for it in chaotic)
        assert [c.result.objective for c in clean] == [
            c.result.objective for c in chaotic]


class TestRunnerQuarantine:
    """ResilientRunner persists poison reports for the CI artifact chain."""

    def _run(self, tmp_path, plan):
        from repro.resilience.runner import (
            ResilientRunner,
            RetryPolicy,
            WorkUnit,
        )

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            runner = ResilientRunner(
                policy=RetryPolicy(max_retries=2, backoff_base_s=0.0,
                                   backoff_max_s=0.0),
                checkpoint_dir=tmp_path, workers=2, fault_plan=plan,
            )
            units = [WorkUnit(key="poisoned/unit", run=_unit(0)),
                     WorkUnit(key="fine", run=_unit(1))]
            report = runner.run_units(units, runner.checkpoint_for("study"))
        return report

    def test_poisoned_unit_fails_run_continues(self, tmp_path):
        plan = FaultPlan([FaultSpec("task", 0, "kill", repeat=True)])
        report = self._run(tmp_path, plan)
        statuses = {o.key: o.status for o in report.outcomes}
        assert statuses == {"poisoned/unit": "failed", "fine": "ok"}
        failed = report.outcomes[0]
        assert failed.error_kind == "fatal"
        assert failed.attempts == 3

    def test_quarantine_report_written_with_safe_name(self, tmp_path):
        plan = FaultPlan([FaultSpec("task", 0, "kill", repeat=True)])
        self._run(tmp_path, plan)
        path = tmp_path / "quarantine" / "poisoned_unit.json"
        assert path.exists()
        blob = json.loads(path.read_text())
        assert blob["label"] == "poisoned/unit"
        assert blob["consecutive_failures"] == 3
        assert [a["outcome"] for a in blob["attempts"]] == ["crash"] * 3

    def test_transient_fault_leaves_no_quarantine(self, tmp_path):
        plan = FaultPlan([FaultSpec("task", 0, "kill")])
        report = self._run(tmp_path, plan)
        assert all(o.ok for o in report.outcomes)
        assert not (tmp_path / "quarantine").exists()


def _unit(v):
    def run():
        return {"v": v}
    return run
