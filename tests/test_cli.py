"""CLI contract tests: subcommands, flags, file outputs and exit codes."""

import pytest

from margmcmc import harness as hz
from margmcmc.cli import main


class TestSimulate:
    def test_writes_requested_files(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(["simulate", "--scenario", "ds", "--replicates", "3",
                     "--out", str(out)])
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["ds-r1.dat", "ds-r1.dat.truth", "ds-r2.dat",
                         "ds-r2.dat.truth", "ds-r3.dat", "ds-r3.dat.truth"]

    def test_all_scenarios_default(self, tmp_path):
        out = tmp_path / "data"
        code = main(["simulate", "--replicates", "1", "--out", str(out)])
        assert code == 0
        assert len(list(out.glob("*.dat"))) == 13

    def test_unknown_scenario_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--scenario", "nope", "--out", str(tmp_path)])


class TestRun:
    def test_run_and_summarise_round_trip(self, tmp_path, capsys):
        res = tmp_path / "res.csv"
        code = main(["run", "--scenario", "two-comp-1", "--method",
                     "gibbs-full", "--chains", "2", "--iterations", "200",
                     "--warmup", "100", "--replicates", "2",
                     "--out", str(res)])
        assert code == 0
        rows = hz.read_records(res)
        assert len(rows) == 2 and all(r["status"] == "ok" for r in rows)

        summary = tmp_path / "summary.csv"
        code = main(["summarise", str(res), "--out", str(summary)])
        assert code == 0
        lines = summary.read_text().splitlines()
        assert len(lines) == 2   # header + one (scenario, method) cell

    def test_deterministic_apart_from_timing(self, tmp_path):
        args = ["run", "--scenario", "two-comp-1", "--method", "gibbs-full",
                "--chains", "1", "--iterations", "150", "--warmup", "50",
                "--replicates", "1", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        (ra,), (rb,) = hz.read_records(a), hz.read_records(b)
        for key in ("min_ess", "max_rhat", "divergences", "seed"):
            assert ra[key] == rb[key]

    def test_json_format(self, tmp_path):
        import json
        res = tmp_path / "res.jsonl"
        code = main(["run", "--scenario", "two-comp-1", "--method",
                     "gibbs-full", "--chains", "1", "--iterations", "150",
                     "--warmup", "50", "--replicates", "1", "--format",
                     "json", "--out", str(res)])
        assert code == 0
        row = json.loads(res.read_text().splitlines()[0])
        assert row["method"] == "gibbs-full"
        # summarise reads JSON lines through the CSV reader's conversion
        (rec,) = hz.read_records(res)
        assert rec["iterations"] == 150 and rec["min_ess"] == float(row["min_ess"])
        summary = tmp_path / "summary.json"
        code = main(["summarise", str(res), "--format", "json",
                     "--out", str(summary)])
        assert code == 0
        (cell,) = json.loads(summary.read_text())
        assert cell["n_ok"] == 1
        assert cell["min_ess"]["median"] == rec["min_ess"]

    def test_inapplicable_pair_is_usage_error(self, tmp_path):
        # restricted-full is not an arm of the rating-model benchmark
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "ds", "--method",
                  "gibbs-full-restricted", "--out",
                  str(tmp_path / "x.csv")])


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["--bogus"])
        assert exc.value.code == 2

    def test_unknown_method_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--method", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["run", "--chains", "0"],
        ["run", "--iterations", "100", "--warmup", "100"],
        ["run", "--warmup", "-1"],
        ["run", "--scenario", "nope"],
        ["simulate", "--scenario", "nope"],
        ["run", "--scenario", "ds", "--method", "gibbs-full-restricted"],
        ["summarise", "EMPTY"],
        ["summarise", "MISSING"],
        ["simulate", "--replicates", "0"],
        ["simulate", "--replicates", "-2"],
    ], ids=["chains-0", "warmup-not-below-iterations", "negative-warmup",
            "unknown-scenario", "simulate-unknown-scenario",
            "no-runnable-cell", "summarise-no-records",
            "summarise-missing-file", "simulate-replicates-0",
            "simulate-negative-replicates"])
    def test_usage_errors_exit_2_with_one_line(self, argv, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        paths = {"EMPTY": str(empty), "MISSING": str(tmp_path / "nope.csv")}
        argv = [paths.get(a, a) for a in argv]
        if argv[0] != "summarise":
            argv += ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if not line.startswith("skip:")] \
            == [err[-1]]
        assert err[-1].startswith("margmcmc: error: ")
        assert not (tmp_path / "out").exists()

    def test_run_out_in_missing_directory_is_2(self, tmp_path, capsys,
                                               monkeypatch):
        def must_not_run(*a, **k):
            raise AssertionError("a record ran before the usage check")

        monkeypatch.setattr(hz, "run_record", must_not_run)
        out = tmp_path / "missing" / "r.csv"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", "two-comp-1", "--method", "gibbs-full",
                  "--replicates", "1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("margmcmc: error: ")
        assert not out.parent.exists()

    def test_record_failure_is_1(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("no")

        monkeypatch.setattr(hz, "run_chain", boom)
        args = ["run", "--scenario", "two-comp-1", "--method", "gibbs-full",
                "--chains", "1", "--iterations", "100", "--warmup", "50",
                "--replicates", "1", "--out", str(tmp_path / "r.csv")]
        assert main(args) == 1
        assert main(args + ["--keep-going"]) == 0

