"""The resilience layer: atomic writes, checkpoints, faults, the runner."""

import json

import pytest

from repro.gpusim.errors import (
    DeviceAllocationError,
    DeviceUnavailableError,
    InvalidLaunchError,
    LaunchTimeoutError,
)
from repro.resilience import (
    CheckpointStore,
    FAULT_SITES,
    SITE_KINDS,
    FaultPlan,
    FaultSpec,
    Firing,
    ResilientRunner,
    RetryPolicy,
    WorkUnit,
    atomic_write_text,
    classify_error,
    parse_fault,
    record_crc,
)


class TestAtomicWrite:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(path, "x")
        assert path.read_text() == "x"

    def test_no_temp_residue(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestCheckpointStore:
    def test_append_and_reload(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = CheckpointStore(path)
        store.append("a", {"v": 1})
        store.append("b", {"v": 2}, attempts=3)

        reloaded = CheckpointStore(path)
        assert len(reloaded) == 2
        assert "a" in reloaded and "b" in reloaded
        assert reloaded.payload("a") == {"v": 1}
        assert reloaded.get("b")["attempts"] == 3
        assert list(reloaded.keys()) == ["a", "b"]

    def test_fresh_discards_existing(self, tmp_path):
        path = tmp_path / "s.jsonl"
        CheckpointStore(path).append("a", 1)
        fresh = CheckpointStore(path, fresh=True)
        assert len(fresh) == 0
        assert not path.exists()

    def test_missing_key_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path / "s.jsonl")
        assert store.get("nope") is None
        assert store.payload("nope") is None

    def test_tolerates_truncated_and_garbage_lines(self, tmp_path):
        path = tmp_path / "s.jsonl"
        good = json.dumps({"schema": 1, "key": "ok", "payload": 7})
        path.write_text(
            good + "\n"
            + '{"schema": 1, "key": "torn", "pay\n'  # truncated tail
            + "not json at all\n"
            + json.dumps({"schema": 1, "no_key": True}) + "\n"
        )
        store = CheckpointStore(path)
        assert len(store) == 1
        assert store.payload("ok") == 7
        assert store.skipped_lines == 3

    def test_file_is_one_json_record_per_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = CheckpointStore(path)
        store.append("k1", [1, 2])
        store.append("k2", "text")
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["key"] for r in records] == ["k1", "k2"]
        assert all(r["schema"] == 2 for r in records)
        assert all(r["crc"] == record_crc(r) for r in records)


class TestCheckpointIntegrity:
    """Schema-2 per-line CRC: bit rot is quarantined, never replayed."""

    def test_record_crc_ignores_key_order_and_crc_field(self):
        a = {"schema": 2, "key": "k", "payload": {"x": 1}, "attempts": 1}
        b = {"payload": {"x": 1}, "attempts": 1, "key": "k", "schema": 2,
             "crc": "deadbeef"}
        assert record_crc(a) == record_crc(b)
        assert len(record_crc(a)) == 8

    def test_corrupt_payload_line_quarantined(self, tmp_path):
        path = tmp_path / "s.jsonl"
        CheckpointStore(path).append("good", {"v": 1})
        store = CheckpointStore(path)
        store.append("rotten", {"v": 2})
        # Flip one payload character on disk: the stored CRC no longer
        # matches the canonical record text.
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace('"v": 2', '"v": 3')
        path.write_text("\n".join(lines) + "\n")

        reloaded = CheckpointStore(path)
        assert "good" in reloaded
        assert "rotten" not in reloaded
        assert reloaded.skipped_lines == 1
        sidecar = reloaded.quarantine_path.read_text().splitlines()
        assert sidecar == [lines[-1]]

    def test_missing_crc_on_schema2_line_quarantined(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps({"schema": 2, "key": "nocrc", "payload": 1}) + "\n"
        )
        store = CheckpointStore(path)
        assert len(store) == 0
        assert store.skipped_lines == 1

    def test_legacy_schema1_lines_still_accepted(self, tmp_path):
        # Pre-CRC checkpoints must keep resuming: schema-1 lines carry no
        # crc and are trusted as-is.
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps({"schema": 1, "key": "old", "payload": 42,
                        "attempts": 1}) + "\n"
        )
        store = CheckpointStore(path)
        assert store.payload("old") == 42
        assert store.skipped_lines == 0

    def test_resume_over_corrupt_last_line_is_bit_identical(self, tmp_path):
        """The acceptance drill: corrupt the checkpoint's last line, resume,
        and the final outcome payloads match a clean run exactly — the
        corrupt cell reruns, the intact cells replay verbatim."""
        import warnings

        units = [WorkUnit(key=f"u{i}", run=_payload_unit(i))
                 for i in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            first = ResilientRunner(checkpoint_dir=tmp_path, workers=2)
            clean = first.run_units(units, first.checkpoint_for("study"))
        assert all(o.ok for o in clean.outcomes)

        path = tmp_path / "study.jsonl"
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # torn tail write
        path.write_text("\n".join(lines) + "\n")

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            second = ResilientRunner(checkpoint_dir=tmp_path, workers=2,
                                     resume=True)
            resumed = second.run_units(units, second.checkpoint_for("study"))
        assert ([(o.key, o.status, o.payload) for o in resumed.outcomes]
                == [(o.key, o.status, o.payload) for o in clean.outcomes])
        replayed = [o.key for o in resumed.outcomes if o.from_checkpoint]
        assert len(replayed) == 3  # the torn cell was recomputed
        assert path.with_name("study.jsonl.quarantine").exists()


def _payload_unit(v):
    def run():
        return {"v": v}
    return run


#: Every (site, kind) pair of the one grammar, with its lowest valid AT.
SITE_KIND_PAIRS = [
    (site, kind) for site, kinds in SITE_KINDS.items() for kind in kinds
]


def _first_at(site):
    return 1 if site in ("launch", "malloc") else 0


class TestFaultGrammar:
    """One table over every site and kind of ``SITE:AT:KIND[:repeat]``."""

    def test_table_covers_every_site(self):
        assert FAULT_SITES == ("launch", "malloc", "task", "send")
        assert {site for site, _ in SITE_KIND_PAIRS} == set(FAULT_SITES)

    @pytest.mark.parametrize("site,kind", SITE_KIND_PAIRS)
    def test_valid_spec_round_trips(self, site, kind):
        text = f"{site}:7:{kind}"
        spec = parse_fault(text)
        assert spec == FaultSpec(site=site, at=7, kind=kind)
        assert not spec.repeat and str(spec) == text

    @pytest.mark.parametrize("site,kind", SITE_KIND_PAIRS)
    def test_repeat_suffix(self, site, kind):
        spec = parse_fault(f"{site}:7:{kind}:repeat")
        assert spec.repeat and str(spec) == f"{site}:7:{kind}:repeat"

    @pytest.mark.parametrize("site,kind", SITE_KIND_PAIRS)
    def test_index_below_the_site_base_rejected(self, site, kind):
        low = _first_at(site)
        assert parse_fault(f"{site}:{low}:{kind}").at == low
        with pytest.raises(ValueError, match=f">= {low}"):
            parse_fault(f"{site}:{low - 1}:{kind}")
        with pytest.raises(ValueError, match="not an integer"):
            parse_fault(f"{site}:x:{kind}")

    @pytest.mark.parametrize("site,kind", SITE_KIND_PAIRS)
    def test_kind_from_another_site_rejected(self, site, kind):
        for other in FAULT_SITES:
            if kind in SITE_KINDS[other]:
                continue
            with pytest.raises(ValueError, match=f"{other} fault kind"):
                parse_fault(f"{other}:{_first_at(other)}:{kind}")

    @pytest.mark.parametrize("text", [
        "teleport:1:kill", "gpu:1:transient", "kill:1:task", "op:1:oom",
    ])
    def test_bad_site_rejected(self, text):
        with pytest.raises(ValueError, match="fault site"):
            parse_fault(text)


class TestFaultSpecs:
    def test_bad_op_rejected(self):
        with pytest.raises(ValueError, match="fault site"):
            FaultSpec(site="teleport", at=1, kind="transient")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultSpec(site="launch", at=1, kind="gamma_ray")

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            FaultSpec(site="launch", at=0, kind="transient")

    def test_parse_fault(self):
        spec = parse_fault("launch:40:transient")
        assert (spec.site, spec.at, spec.kind, spec.repeat) == (
            "launch", 40, "transient", False
        )
        assert parse_fault("malloc:3:oom:repeat").repeat

    def test_parse_fault_rejects_malformed(self):
        for bad in ("launch", "launch:40", "launch:x:fatal",
                    "launch:40:fatal:forever"):
            with pytest.raises(ValueError):
                parse_fault(bad)

    def test_plan_fires_once_at_index(self):
        plan = FaultPlan([FaultSpec(site="launch", at=3, kind="fatal")])
        plan.record("launch")
        plan.record("launch")
        with pytest.raises(InvalidLaunchError):
            plan.record("launch")
        plan.record("launch")  # one-shot: index 4 passes
        assert plan.fired == [Firing("launch", 3, "fatal")]
        assert plan.counts()["launch"] == 4

    def test_repeat_fires_forever(self):
        plan = FaultPlan(
            [FaultSpec(site="malloc", at=2, kind="oom", repeat=True)]
        )
        plan.record("malloc")
        for _ in range(3):
            with pytest.raises(DeviceAllocationError):
                plan.record("malloc")

    def test_counters_are_per_op(self):
        plan = FaultPlan([FaultSpec(site="launch", at=1, kind="fatal")])
        plan.record("malloc")  # does not advance the launch counter
        with pytest.raises(InvalidLaunchError):
            plan.record("launch")

    def test_keyed_sites_neither_count_nor_cross(self):
        plan = FaultPlan([
            FaultSpec(site="task", at=0, kind="kill"),
            FaultSpec(site="send", at=0, kind="delay"),
            FaultSpec(site="launch", at=1, kind="fatal"),
        ])
        assert plan.directive("task", 0, attempt=1) == "kill"
        assert plan.directive("send", 0, attempt=1, host="h:1") == "delay"
        assert plan.counts() == {"launch": 0, "malloc": 0}
        with pytest.raises(ValueError, match="counted fault site"):
            plan.record("task")
        assert plan.fired == [
            Firing("task", 0, "kill", attempt=1),
            Firing("send", 0, "delay", attempt=1, host="h:1"),
        ]

    def test_hang_needs_a_watchdog(self):
        plan = FaultPlan([parse_fault("task:0:hang")])
        with pytest.raises(ValueError, match="set task_timeout"):
            plan.check_watchdog(None)
        plan.check_watchdog(1.0)
        FaultPlan([parse_fault("task:0:kill")]).check_watchdog(None)

    def test_refuse_sites_names_the_spec(self):
        plan = FaultPlan([parse_fault("send:2:delay:repeat")])
        plan.refuse_sites(("task",), "here")
        with pytest.raises(ValueError,
                           match="here cannot fire 'send' faults "
                                 r"\(got send:2:delay:repeat\)"):
            plan.refuse_sites(("send",), "here")


class TestClassification:
    def test_transient_errors(self):
        assert classify_error(DeviceUnavailableError("x")) == "transient"
        assert classify_error(LaunchTimeoutError("x")) == "transient"

    def test_fatal_errors(self):
        assert classify_error(DeviceAllocationError("x")) == "fatal"
        assert classify_error(InvalidLaunchError("x")) == "fatal"
        assert classify_error(ValueError("x")) == "fatal"


class TestRetryPolicyValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_zero_deadline_rejected(self):
        with pytest.raises(ValueError, match="unit_timeout_s"):
            RetryPolicy(unit_timeout_s=0.0)

    def test_bad_backoff_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.0)

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                             backoff_max_s=0.3)
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(5) == pytest.approx(0.3)  # capped


def _instant_runner(**kwargs):
    """A runner whose sleeps are recorded, not slept."""
    slept = []
    runner = ResilientRunner(sleep=slept.append, **kwargs)
    return runner, slept


class TestResilientRunner:
    def test_clean_units_all_complete(self):
        runner, _ = _instant_runner()
        report = runner.run_units(
            [WorkUnit(key=f"u{i}", run=lambda i=i: i * i) for i in range(4)]
        )
        assert [o.payload for o in report.completed] == [0, 1, 4, 9]
        assert not report.failed and not report.interrupted

    def test_transient_retried_with_backoff(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise DeviceUnavailableError("blip")
            return "done"

        runner, slept = _instant_runner(
            policy=RetryPolicy(max_retries=2, backoff_base_s=0.05,
                               backoff_factor=2.0, backoff_max_s=10.0)
        )
        report = runner.run_units([WorkUnit(key="u", run=flaky)])
        outcome = report.outcomes[0]
        assert outcome.ok and outcome.attempts == 3
        assert slept == pytest.approx([0.05, 0.1])  # deterministic backoff

    def test_transient_exhausts_retries(self):
        def always():
            raise LaunchTimeoutError("watchdog")

        runner, slept = _instant_runner(policy=RetryPolicy(max_retries=2))
        report = runner.run_units([WorkUnit(key="u", run=always)])
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 3  # initial + 2 retries
        assert outcome.error_kind == "transient"
        assert len(slept) == 2

    def test_fatal_never_retried(self):
        def boom():
            raise InvalidLaunchError("bad geometry")

        runner, slept = _instant_runner(policy=RetryPolicy(max_retries=5))
        report = runner.run_units([WorkUnit(key="u", run=boom)])
        assert report.outcomes[0].attempts == 1
        assert report.outcomes[0].error_kind == "fatal"
        assert slept == []

    def test_deadline_bounds_transient_retries(self):
        clock = iter(range(100))

        def slow_transient():
            raise DeviceUnavailableError("blip")

        runner = ResilientRunner(
            policy=RetryPolicy(max_retries=50, unit_timeout_s=3.0),
            sleep=lambda s: None,
            clock=lambda: float(next(clock)),
        )
        report = runner.run_units([WorkUnit(key="u", run=slow_transient)])
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert "deadline" not in (outcome.error or "")
        assert outcome.attempts < 51  # stopped by time, not retry count

    def test_failure_does_not_stop_later_units(self):
        def boom():
            raise InvalidLaunchError("x")

        runner, _ = _instant_runner()
        report = runner.run_units([
            WorkUnit(key="bad", run=boom),
            WorkUnit(key="good", run=lambda: 42),
        ])
        assert [o.status for o in report.outcomes] == ["failed", "ok"]

    def test_interrupt_skips_remaining_units(self):
        ran = []

        def first():
            ran.append("first")
            return 1

        def ctrl_c():
            raise KeyboardInterrupt

        def never():
            ran.append("never")
            return 3

        runner, _ = _instant_runner()
        report = runner.run_units([
            WorkUnit(key="a", run=first),
            WorkUnit(key="b", run=ctrl_c),
            WorkUnit(key="c", run=never),
        ])
        assert report.interrupted and runner.interrupted
        assert ran == ["first"]
        assert [o.status for o in report.outcomes] == [
            "ok", "skipped", "skipped"
        ]
        assert "--resume" in report.footnote()

    def test_completed_units_checkpointed_and_restored(self, tmp_path):
        runner, _ = _instant_runner(checkpoint_dir=tmp_path)
        checkpoint = runner.checkpoint_for("study")
        runner.run_units(
            [WorkUnit(key="u", run=lambda: {"x": 1})], checkpoint
        )

        resumed, _ = _instant_runner(checkpoint_dir=tmp_path, resume=True)
        report = resumed.run_units(
            [WorkUnit(key="u", run=lambda: pytest.fail("recomputed"))],
            resumed.checkpoint_for("study"),
        )
        outcome = report.outcomes[0]
        assert outcome.ok and outcome.from_checkpoint
        assert outcome.payload == {"x": 1}

    def test_failed_units_not_checkpointed(self, tmp_path):
        def boom():
            raise InvalidLaunchError("x")

        runner, _ = _instant_runner(checkpoint_dir=tmp_path)
        checkpoint = runner.checkpoint_for("study")
        runner.run_units([WorkUnit(key="u", run=boom)], checkpoint)
        assert "u" not in checkpoint
        assert runner.failed_units and runner.failed_units[0].key == "u"

    def test_solver_backend_without_plan_is_name(self):
        runner, _ = _instant_runner()
        assert runner.solver_engine()["backend"] == "gpusim"
        assert runner.solver_engine("vectorized")["backend"] == "vectorized"

    def test_solver_backend_with_plan_carries_it(self):
        plan = FaultPlan([FaultSpec(site="launch", at=1, kind="transient")])
        runner, _ = _instant_runner(fault_plan=plan)
        backend = runner.solver_engine("vectorized")["backend"]
        assert backend.fault_plan is plan

    def test_task_faults_need_a_worker_pool(self):
        # The serial path builds no pool, so a task fault would never fire.
        plan = FaultPlan([parse_fault("task:1:kill")])
        for workers in (None, 1):
            with pytest.raises(ValueError, match="without a worker pool"):
                ResilientRunner(fault_plan=plan, workers=workers)
        assert ResilientRunner(fault_plan=plan, workers=2).fault_plan is plan

    def test_hang_fault_needs_the_task_timeout(self):
        plan = FaultPlan([parse_fault("task:0:hang")])
        with pytest.raises(ValueError, match="set task_timeout"):
            ResilientRunner(fault_plan=plan, workers=2)
        ResilientRunner(fault_plan=plan, workers=2, task_timeout_s=1.0)

    def test_footnote_empty_on_clean_run(self):
        runner, _ = _instant_runner()
        report = runner.run_units([WorkUnit(key="u", run=lambda: 1)])
        assert report.footnote() == ""
