"""CLI contract tests: subcommands, flags, file outputs and exit codes."""

import pytest

from margmcmc import harness as hz
from margmcmc.cli import build_parser, main, run_specs


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

    def test_default_specs_follow_the_paper_protocol(self):
        # 3 chains of 3000 iterations, 1500 of them warmup, 5 replicates
        # and master seed 0, from RunSpec's defaults
        for spec in run_specs(build_parser().parse_args(["run"])):
            assert spec == hz.RunSpec(spec.scenario_id, spec.method)
            assert (spec.chains, spec.iterations, spec.warmup,
                    spec.replicates, spec.master_seed) == (3, 3000, 1500, 5, 0)

    def test_repeated_scenario_or_method_runs_once(self):
        # a duplicate spec would run its records twice on identical
        # streams and append rows that `summarise` counts twice
        args = build_parser().parse_args(
            ["run", "--scenario", "ds", "--scenario", "two-comp-1",
             "--scenario", "ds", "--method", "gibbs-full",
             "--method", "nuts-marginal", "--method", "gibbs-full"])
        cells = [(s.scenario_id, s.method) for s in run_specs(args)]
        assert cells == [("ds", "gibbs-full"), ("ds", "nuts-marginal"),
                         ("two-comp-1", "gibbs-full"),
                         ("two-comp-1", "nuts-marginal")]

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
        ["run", "--scenario", "ds", "--method", "gibbs-full-restricted"],
        ["summarise", "EMPTY"],
        ["summarise", "MISSING"],
        ["summarise", "ONE_ROW", "--out", "MISSING_DIR"],
        ["run", "--replicates", "0"],
        ["run", "--parallel", "0"],
        ["run", "--parallel", "-1"],
        ["summarise", "DATASET"],
        ["summarise", "NO_COLUMNS"],
        ["summarise", "TRUNCATED"],
        ["run", "--scenario", "two-comp-1", "--method", "gibbs-full",
         "--replicates", "1", "--out", "DATASET"],
        ["run", "--scenario", "two-comp-1", "--method", "gibbs-full",
         "--replicates", "1", "--out", "NO_COLUMNS"],
        ["run", "--scenario", "two-comp-1", "--method", "gibbs-full",
         "--replicates", "1", "--out", "DIR"],
        ["summarise", "ONE_ROW", "--out", "DIR"],
        ["run", "--scenario", "two-comp-1", "--method", "gibbs-full",
         "--replicates", "1", "--chains", "2", "--iterations", "3",
         "--warmup", "0"],
        ["run", "--seed", "-1"],
        ["summarise", "ONE_ROW", "--out", "ONE_ROW"],
    ], ids=["chains-0", "warmup-not-below-iterations", "negative-warmup",
            "unknown-scenario", "no-runnable-cell", "summarise-no-records",
            "summarise-missing-file", "summarise-out-in-missing-directory",
            "run-replicates-0", "parallel-0", "negative-parallel",
            "summarise-dataset-file", "summarise-csv-without-result-columns",
            "summarise-truncated-row", "run-out-onto-dataset",
            "run-out-onto-csv-without-schema-line", "run-out-is-directory",
            "summarise-out-is-directory", "fewer-than-4-kept-draws",
            "run-negative-seed", "summarise-out-is-results-file"])
    def test_usage_errors_exit_2_with_one_line(self, argv, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        one_row = tmp_path / "one.csv"
        hz.write_records_csv(one_row, [hz.BenchRecord(
            scenario_id="ds", method="gibbs-full", replicate=1, chains=1,
            iterations=20, warmup=10, seed=1)])
        # a rating dataset as text: a key=value header, then rating rows
        dataset = tmp_path / "ds-r1.dat"
        dataset.write_text(
            "format=1 scenario=ds kind=dawid-skene replicate=1 seed=0 "
            "items=2 raters=5 categories=5\n3 3 1 3 3\n5 5 5 2 5\n")
        no_columns = tmp_path / "other.csv"
        no_columns.write_text("a,b\n1,2\n")
        # a row cut short after `iterations`, as a killed run leaves it
        truncated = tmp_path / "truncated.csv"
        *head, row = one_row.read_text().splitlines()
        truncated.write_text("\n".join(
            head + [",".join(row.split(",")[:6])]) + "\n")
        paths = {"EMPTY": str(empty), "MISSING": str(tmp_path / "nope.csv"),
                 "ONE_ROW": str(one_row),
                 "MISSING_DIR": str(tmp_path / "missing" / "s.csv"),
                 "DATASET": str(dataset), "NO_COLUMNS": str(no_columns),
                 "TRUNCATED": str(truncated), "DIR": str(tmp_path)}
        inputs = {path: path.read_bytes() for path in
                  (empty, one_row, dataset, no_columns, truncated)}
        argv = [paths.get(a, a) for a in argv]
        if argv[0] != "summarise" and "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if not line.startswith("skip:")] \
            == [err[-1]]
        assert err[-1].startswith("margmcmc: error: ")
        assert not (tmp_path / "out").exists()
        assert {path: path.read_bytes() for path in inputs} == inputs

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

    def test_record_failure_is_1(self, tmp_path, monkeypatch, capsys):
        def boom(*a, **k):
            raise RuntimeError("no")

        monkeypatch.setattr(hz, "run_chain", boom)
        args = ["run", "--scenario", "two-comp-1", "--method", "gibbs-full",
                "--chains", "1", "--iterations", "100", "--warmup", "50",
                "--replicates", "1", "--out", str(tmp_path / "r.csv")]
        assert main(args) == 1
        assert capsys.readouterr().out.splitlines() == [
            "two-comp-1 gibbs-full r1: error:RuntimeError: no"]
        assert main(args + ["--keep-going"]) == 0

