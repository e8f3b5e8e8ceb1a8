"""Harness tests: matrix arithmetic, record determinism, persistence
round-trips, failure tolerance and summary flagging."""

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from margmcmc import harness as hz
from margmcmc.cli import build_parser, run_specs


SMALL = dict(chains=2, iterations=200, warmup=100)


class TestSpecs:
    def test_matrix_arithmetic(self):
        specs = run_specs(build_parser().parse_args(["run", "--seed", "42"]))
        records = sum(s.replicates for s in specs)
        # 4 and 8 mixture scenarios x 4 methods + 1 rating scenario x 3
        assert records == 4 * 4 * 5 + 8 * 4 * 5 + 1 * 3 * 5

    def test_method_applicability(self):
        from margmcmc.simulate import get_scenario
        assert get_scenario("two-comp-1").model().methods == hz.METHODS
        ds_methods = get_scenario("ds").model().methods
        assert "gibbs-full-restricted" not in ds_methods
        assert len(ds_methods) == 3

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            hz.RunSpec("two-comp-1", "nope")
        with pytest.raises(KeyError):
            hz.RunSpec("nope", "gibbs-full")
        with pytest.raises(ValueError):
            hz.RunSpec("two-comp-1", "gibbs-full", chains=0)


class TestRunRecord:
    def test_metrics_finite_and_consistent(self):
        spec = hz.RunSpec("two-comp-1", "gibbs-full", master_seed=5, **SMALL)
        rec = hz.run_record(spec, 1)
        assert rec.status == "ok"
        assert rec.comp_time_s > 0 and rec.min_ess > 0
        assert rec.time_per_min_ess == pytest.approx(
            rec.comp_time_s / rec.min_ess, rel=1e-12)

    def test_rerun_reproduces_diagnostics(self):
        spec = hz.RunSpec("two-comp-1", "gibbs-full", master_seed=5, **SMALL)
        a = hz.run_record(spec, 2)
        b = hz.run_record(spec, 2)
        assert a.min_ess == b.min_ess
        assert a.max_rhat == b.max_rhat

    def test_failure_recorded_not_raised(self, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("chain exploded")

        monkeypatch.setattr(hz, "run_chain", boom)
        spec = hz.RunSpec("two-comp-1", "gibbs-full", **SMALL)
        rec = hz.run_record(spec, 1)
        assert rec.status == "error:RuntimeError: chain exploded"
        assert np.isnan(rec.min_ess)

    def test_failure_keeps_first_line_of_message(self, monkeypatch, tmp_path):
        def boom(*a, **k):
            raise ValueError("sigma overflowed, at 1e308: stop\nsecond line")

        monkeypatch.setattr(hz, "run_chain", boom)
        spec = hz.RunSpec("two-comp-1", "gibbs-full", **SMALL)
        bad = hz.run_record(spec, 1)
        assert bad.status == "error:ValueError: sigma overflowed, at 1e308: stop"

        def bare(*a, **k):
            raise KeyError()

        monkeypatch.setattr(hz, "run_chain", bare)
        assert hz.run_record(spec, 1).status == "error:KeyError"
        # the message survives the CSV round trip; summarise still counts
        # only `ok` rows
        monkeypatch.undo()
        path = tmp_path / "r.csv"
        hz.write_records_csv(path, [bad, hz.run_record(spec, 2)])
        rows = hz.read_records(path)
        assert [r["status"] for r in rows] == [bad.status, "ok"]
        (cell,) = hz.summarise(rows)
        assert cell["n_records"] == 2 and cell["n_ok"] == 1

    def test_matrix_continues_after_failure(self, monkeypatch):
        calls = []
        real = hz.run_chain

        def flaky(model, data, method, iterations, warmup, rng):
            calls.append(method)
            if method == "nuts-marginal":
                raise RuntimeError("boom")
            return real(model, data, method, iterations, warmup, rng)

        monkeypatch.setattr(hz, "run_chain", flaky)
        specs = [hz.RunSpec("two-comp-1", m, replicates=1, **SMALL)
                 for m in ("nuts-marginal", "gibbs-full")]
        records = hz.run_matrix(specs)
        assert [r.status for r in records] == ["error:RuntimeError: boom", "ok"]

    def test_incremental_sink_called_per_record(self):
        seen = []
        specs = [hz.RunSpec("two-comp-1", "gibbs-full", replicates=2, **SMALL)]
        hz.run_matrix(specs, on_record=seen.append)
        assert [r.replicate for r in seen] == [1, 2]

    def test_process_pool_matches_serial(self):
        # records arrive in submission order in both modes, an empty
        # matrix included, and on_record sees them in that order
        assert hz.run_matrix([]) == hz.run_matrix([], parallelism=2) == []
        specs = [hz.RunSpec("two-comp-1", m, chains=1, iterations=40,
                            warmup=20, replicates=r)
                 for m, r in (("gibbs-full", 3), ("gibbs-marginal", 1))]
        order = [("gibbs-full", 1), ("gibbs-full", 2), ("gibbs-full", 3),
                 ("gibbs-marginal", 1)]
        seen_serial, seen = [], []
        serial = hz.run_matrix(specs, on_record=seen_serial.append)
        pooled = hz.run_matrix(specs, parallelism=2, on_record=seen.append)
        assert seen_serial == serial and seen == pooled
        for records in (serial, pooled):
            assert [(r.method, r.replicate) for r in records] == order
        timing = {"comp_time_s", "time_per_min_ess"}
        for a, b in zip(serial, pooled):
            assert a.status == "ok"
            assert {k: v for k, v in vars(a).items() if k not in timing} \
                == {k: v for k, v in vars(b).items() if k not in timing}


class TestPersistence:
    def _records(self):
        spec = hz.RunSpec("two-comp-1", "gibbs-full", master_seed=3, **SMALL)
        return [hz.run_record(spec, r) for r in (1, 2)]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        recs = self._records()
        hz.write_records_csv(path, recs)
        rows = hz.read_records(path)
        assert len(rows) == 2
        assert rows[0]["min_ess"] == recs[0].min_ess
        assert rows[0]["scenario_id"] == "two-comp-1"
        assert rows[0]["schema_version"] == hz.SCHEMA_VERSION

    def test_csv_column_order(self, tmp_path):
        path = tmp_path / "r.csv"
        hz.write_records_csv(path, self._records()[:1])
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")          # schema comment
        assert lines[1] == ",".join(hz.CSV_COLUMNS)

    def test_append_mode(self, tmp_path):
        path = tmp_path / "r.csv"
        recs = self._records()
        hz.write_records_csv(path, recs[:1])
        hz.write_records_csv(path, recs[1:])
        assert len(hz.read_records(path)) == 2

    def test_columns_read_back_as_record_fields(self, tmp_path):
        failed = hz.BenchRecord(scenario_id="ds", method="gibbs-full",
                                replicate=3, chains=1, iterations=20,
                                warmup=10, seed=7, status="error:KeyError")
        recs = self._records() + [failed]
        assert all(tuple(rec.row()) == hz.CSV_COLUMNS for rec in recs)
        path = tmp_path / "r.csv"
        hz.write_records_csv(path, recs)
        rows = hz.read_records(path)
        assert [tuple(row) for row in rows] == [hz.CSV_COLUMNS] * 3
        for rec, row in zip(recs, rows):
            assert row.pop("schema_version") == hz.SCHEMA_VERSION
            for field in fields(hz.BenchRecord):
                value = getattr(rec, field.name)
                assert type(row[field.name]) is field.type
                assert row[field.name] == value or (
                    np.isnan(value) and np.isnan(row[field.name]))

    def test_rewriting_benchmark_results_is_byte_identical(self, tmp_path):
        cached = Path(__file__).resolve().parents[1] / "benchmark/results.csv"
        rows = hz.read_records(cached)
        path = tmp_path / "r.csv"
        hz.write_records_csv(path, [hz.BenchRecord(**{
            f.name: row[f.name] for f in fields(hz.BenchRecord)})
            for row in rows])
        assert path.read_bytes() == cached.read_bytes()


def fake_row(scenario="s", method="m", replicate=1, status="ok",
             rhat=1.01, ess=100.0, time=2.0):
    return {"scenario_id": scenario, "method": method, "replicate": replicate,
            "status": status, "comp_time_s": time, "min_ess": ess,
            "time_per_min_ess": time / ess, "max_rhat": rhat}


class TestSummarise:
    def test_identical_records_collapse(self):
        rows = [fake_row(replicate=r) for r in range(1, 6)]
        (cell,) = hz.summarise(rows)
        assert cell["min_ess_min"] == cell["min_ess_median"] \
            == cell["min_ess_max"] == 100.0
        assert cell["n_ok"] == 5 and cell["gap"] == 0

    def test_rhat_threshold_flags_cell(self):
        rows = [fake_row(), fake_row(replicate=2, rhat=1.2)]
        (cell,) = hz.summarise(rows)
        assert cell["rhat_flag"] == 1

    def test_empty_cell_gap_marker(self):
        rows = [fake_row(status="error:RuntimeError")]
        (cell,) = hz.summarise(rows)
        assert cell["gap"] == 1 and cell["n_ok"] == 0
        assert cell["rhat_flag"] == 0 and cell["min_ess_median"] is None

    def test_one_row_per_cell(self):
        rows = [fake_row(scenario=s, method=m)
                for s in ("a", "b") for m in ("x", "y")]
        summary = hz.summarise(rows)
        assert len(summary) == 4

    def test_flat_csv_rows(self):
        (cell,) = hz.summarise([fake_row()])
        assert cell["min_ess_median"] == 100.0
        assert type(cell["min_ess_median"]) is float
        assert cell["rhat_flag"] == 0
