"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_args(self):
        args = build_parser().parse_args(
            ["solve", "cdd", "-n", "20", "-m", "serial_sa", "-i", "100"]
        )
        assert args.problem == "cdd"
        assert args.jobs == 20
        assert args.method == "serial_sa"

    def test_experiment_args(self):
        args = build_parser().parse_args(["experiment", "fig11",
                                          "--scale", "smoke"])
        assert args.name == "fig11"
        assert args.scale == "smoke"

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])

    def test_experiment_resilience_flags(self):
        args = build_parser().parse_args([
            "experiment", "table2", "--resume", "--checkpoint-dir", "/tmp/c",
            "--max-retries", "5", "--unit-timeout", "30",
            "--inject-fault", "launch:40:transient",
            "--backend", "vectorized",
        ])
        assert args.resume and args.checkpoint_dir == "/tmp/c"
        assert args.max_retries == 5 and args.unit_timeout == 30.0
        assert args.inject_fault == ["launch:40:transient"]
        assert args.backend == "vectorized"

    def test_experiment_offers_only_backends_it_can_run(self, capsys):
        # `experiment` has no --hosts, so a distributed solve could never
        # start there; argparse refuses the choice up front.
        with pytest.raises(SystemExit) as info:
            main(["experiment", "table2", "--backend", "distributed"])
        assert info.value.code == 2
        assert "invalid choice: 'distributed'" in capsys.readouterr().err
        args = build_parser().parse_args(
            ["experiment", "table2", "--backend", "multiprocess"]
        )
        assert args.backend == "multiprocess"

    def test_experiment_resilience_defaults(self):
        args = build_parser().parse_args(["experiment", "table2"])
        assert not args.resume
        assert args.checkpoint_dir == "results/checkpoints"
        assert args.max_retries == 2
        assert args.unit_timeout is None and args.inject_fault is None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "cdd_smoke" in out

    def test_solve_serial(self, capsys):
        rc = main(["solve", "cdd", "-n", "10", "-m", "serial_sa",
                   "-i", "50", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "objective" in out and "biskup_n10" in out

    def test_solve_parallel_ucddcp(self, capsys):
        rc = main(["solve", "ucddcp", "-n", "10", "-m", "serial_sa",
                   "-i", "50"])
        assert rc == 0
        assert "ucddcp_n10" in capsys.readouterr().out

    def test_experiment_fig11_smoke(self, capsys):
        rc = main(["experiment", "fig11", "--scale", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig 11" in out

    def test_profile(self, capsys):
        rc = main(["profile", "-n", "20", "-i", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fitness_cdd" in out
        assert "Time(%)" in out


class TestNewCommands:
    def test_bestknown(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        rc = main(["bestknown", "cdd_smoke", "--restarts", "1",
                   "--iterations", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "biskup_n10" in out and "reference values" in out
        assert (tmp_path / "bestknown.json").exists()

    def test_trace(self, capsys):
        rc = main(["trace", "-n", "15", "-i", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "async" in out and "best" in out

    def test_trace_sync_variant(self, capsys):
        rc = main(["trace", "-n", "15", "-i", "60", "--variant", "sync"])
        assert rc == 0
        assert "sync" in capsys.readouterr().out

    def test_report(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table2_cdd_deviation.txt").write_text("TABLE2 CONTENT\n")
        out = tmp_path / "EXPERIMENTS.md"
        rc = main(["report", "--results", str(results),
                   "--output", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "TABLE2 CONTENT" in text
        assert "paper vs. measured" in text
        assert "not yet generated" in text  # missing sections marked

    def test_solve_parallel_geometry_flags(self, capsys):
        rc = main(["solve", "cdd", "-n", "10", "-m", "parallel_sa",
                   "-i", "30", "--grid", "1", "--block", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "496 evaluations" in out or "evaluations" in out


class TestResilientCli:
    def test_bad_fault_spec_fails_fast(self, tmp_path):
        with pytest.raises(ValueError, match="bad fault spec"):
            main(["experiment", "cooling", "--scale", "smoke",
                  "--checkpoint-dir", str(tmp_path),
                  "--inject-fault", "launch:nope"])

    def test_unknown_fault_kind_fails_fast(self, tmp_path):
        with pytest.raises(ValueError, match="fault kind"):
            main(["experiment", "cooling", "--scale", "smoke",
                  "--checkpoint-dir", str(tmp_path),
                  "--inject-fault", "launch:1:gamma_ray"])

    @pytest.mark.parametrize("command, spec", [
        (["experiment", "cooling", "--scale", "smoke"], "send:0:delay"),
        # Without --workers the runner is serial and builds no pool.
        (["experiment", "table2", "--scale", "smoke"], "task:1:kill"),
        (["bestknown", "cdd_smoke"], "launch:1:transient"),
        (["bestknown", "cdd_smoke"], "task:0:kill"),
    ])
    def test_unfirable_fault_site_exits_2(self, capsys, tmp_path, command,
                                          spec):
        rc = main(command + ["--checkpoint-dir", str(tmp_path),
                             "--inject-fault", spec])
        assert rc == 2
        assert f"(got {spec})" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # refused before any work

    def test_repeated_inject_fault_builds_one_plan(self):
        from repro.cli import _fault_plan

        args = build_parser().parse_args([
            "experiment", "table2", "--inject-fault", "launch:40:transient",
            "--inject-fault", "task:1:kill:repeat",
        ])
        assert [str(s) for s in _fault_plan(args).specs] == [
            "launch:40:transient", "task:1:kill:repeat"]

    def test_negative_retries_fail_fast(self, tmp_path):
        with pytest.raises(ValueError, match="max_retries"):
            main(["experiment", "cooling", "--scale", "smoke",
                  "--checkpoint-dir", str(tmp_path), "--max-retries", "-1"])

    def test_zero_unit_timeout_fails_fast(self, tmp_path):
        with pytest.raises(ValueError, match="unit_timeout_s"):
            main(["experiment", "cooling", "--scale", "smoke",
                  "--checkpoint-dir", str(tmp_path), "--unit-timeout", "0"])

    def test_experiment_writes_checkpoint(self, capsys, tmp_path):
        rc = main(["experiment", "cooling", "--scale", "smoke",
                   "--checkpoint-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "ablation_cooling_smoke.jsonl").exists()

    def test_experiment_checkpointing_disabled(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["experiment", "cooling", "--scale", "smoke",
                   "--checkpoint-dir", "none"])
        assert rc == 0
        assert not (tmp_path / "none").exists()
        assert not (tmp_path / "results").exists()

    def test_interrupt_fault_exits_130_and_resumes(self, capsys, tmp_path):
        rc = main(["experiment", "cooling", "--scale", "smoke",
                   "--checkpoint-dir", str(tmp_path),
                   "--inject-fault", "launch:1500:interrupt"])
        captured = capsys.readouterr()
        assert rc == 130
        assert "--resume" in captured.err

        rc2 = main(["experiment", "cooling", "--scale", "smoke",
                    "--checkpoint-dir", str(tmp_path), "--resume"])
        captured2 = capsys.readouterr()
        assert rc2 == 0
        assert "restored from checkpoint" in captured2.err

    def test_permanent_failure_exits_1_with_partial_table(self, capsys,
                                                          tmp_path):
        rc = main(["experiment", "cooling", "--scale", "smoke",
                   "--checkpoint-dir", str(tmp_path),
                   "--inject-fault", "launch:700:fatal"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "Failed cells" in captured.out  # table still rendered
        assert "failed permanently" in captured.err

    def test_bestknown_checkpoint_flags(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        ckpt = tmp_path / "ckpt"
        rc = main(["bestknown", "cdd_smoke", "--restarts", "1",
                   "--iterations", "300", "--checkpoint-dir", str(ckpt)])
        assert rc == 0
        assert (ckpt / "bestknown.jsonl").exists()
        out = capsys.readouterr().out
        assert "biskup_n10" in out and "reference values" in out
