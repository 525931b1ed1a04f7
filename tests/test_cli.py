"""Command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.pool.faults import parse_net_fault, parse_pool_fault
from repro.resilience import parse_fault


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
        assert args.inject_fault.specs == (parse_fault("launch:40:transient"),)
        assert args.backend == "vectorized"

    def test_experiment_resilience_defaults(self):
        args = build_parser().parse_args(["experiment", "table2"])
        assert not args.resume
        assert args.checkpoint_dir == "results/checkpoints"
        assert args.max_retries == 2
        assert args.unit_timeout is None and args.inject_fault is None


class TestMalformedFaultSpecs:
    """A malformed fault spec is a usage error: exit 2 with the parser's
    own message, before any work runs."""

    @pytest.mark.parametrize("argv, parse", [
        (["solve", "cdd", "--backend", "multiprocess",
          "--inject-pool-fault", "bogus:1"], parse_pool_fault),
        (["solve", "cdd", "--backend", "distributed",
          "--hosts", "127.0.0.1:1:1", "--inject-net-fault", "bogus:1"],
         parse_net_fault),
        (["experiment", "table2", "--inject-fault", "launch:x:transient"],
         parse_fault),
        (["experiment", "table2", "--backend", "multiprocess",
          "--inject-pool-fault", "kill"], parse_pool_fault),
        (["bestknown", "cdd_quick", "--workers", "2",
          "--inject-pool-fault", "nope:1"], parse_pool_fault),
        (["serve", "--inject-pool-fault", "nope:0"], parse_pool_fault),
    ])
    def test_exits_2_with_parser_message(self, argv, parse, capsys):
        flag, spec = argv[-2:]
        with pytest.raises(ValueError) as parsed:
            parse(spec)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {parsed.value}" in err
        assert "Traceback" not in err


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
        # The table profiles the reported solve: one launch per generation.
        rows = [line.split() for line in out.splitlines()]
        calls = {row[4]: int(row[2]) for row in rows
                 if len(row) == 5 and row[0].endswith("%")}
        assert calls["perturbation"] == 30
        assert calls["acceptance"] == 30


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
    def test_bad_fault_spec_fails_fast(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "cooling", "--scale", "smoke",
                  "--checkpoint-dir", str(tmp_path),
                  "--inject-fault", "launch:nope"])
        assert excinfo.value.code == 2
        assert "bad fault spec" in capsys.readouterr().err

    def test_unknown_fault_kind_fails_fast(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "cooling", "--scale", "smoke",
                  "--checkpoint-dir", str(tmp_path),
                  "--inject-fault", "launch:1:gamma_ray"])
        assert excinfo.value.code == 2
        assert "fault kind" in capsys.readouterr().err

    def test_negative_retries_fail_fast(self, tmp_path):
        with pytest.raises(ValueError, match="max_retries"):
            main(["experiment", "cooling", "--scale", "smoke",
                  "--checkpoint-dir", str(tmp_path), "--max-retries", "-1"])

    def test_zero_unit_timeout_fails_fast(self, tmp_path):
        with pytest.raises(ValueError, match="unit_timeout_s"):
            main(["experiment", "cooling", "--scale", "smoke",
                  "--checkpoint-dir", str(tmp_path), "--unit-timeout", "0"])

    def test_experiment_refuses_distributed_backend(self, capsys):
        # Studies take no --hosts: refused at parse time, before any unit.
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "table2", "--scale", "smoke",
                  "--backend", "distributed", "--checkpoint-dir", "none"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'distributed'" in capsys.readouterr().err

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
