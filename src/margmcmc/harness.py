"""Benchmark harness: scenario x method x replicate matrix with timing,
diagnostics, and append-only result persistence.

Timing covers warmup plus sampling wall time only; chains within a record
always run serially so one record's clock is never distorted by another.
Parallelism, when requested, is applied across records.
"""

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .dawid_skene import DawidSkeneModel
from .diagnostics import efficiency_report
from .gibbs import GibbsConfig, gibbs_run
from .mixture import MixtureModel
from .nuts import NutsConfig, nuts_run
from .simulate import gen_dataset, get_scenario, scenario_catalog
from .stats import make_rng

SCHEMA_VERSION = 1

METHODS = ("nuts-marginal", "gibbs-full", "gibbs-full-restricted",
           "gibbs-marginal")

_GIBBS_MODE = {
    "gibbs-full": "full-conjugate",
    "gibbs-full-restricted": "full-restricted",
    "gibbs-marginal": "marginal-slice",
}

CSV_COLUMNS = ("schema_version", "scenario_id", "method", "replicate",
               "chains", "iterations", "warmup", "seed", "comp_time_s",
               "min_ess", "time_per_min_ess", "max_rhat", "divergences",
               "status")


def methods_for_scenario(scenario):
    """Applicable method arms; the rating model skips the restricted-full
    arm, whose sampler set coincides with the default full-model one."""
    if scenario.kind == "dawid-skene":
        return ("nuts-marginal", "gibbs-full", "gibbs-marginal")
    return METHODS


@dataclass(frozen=True)
class RunSpec:
    scenario_id: str
    method: str
    chains: int = 3
    iterations: int = 3000
    warmup: int = 1500
    replicates: int = 5
    master_seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; "
                             f"known: {', '.join(METHODS)}")
        get_scenario(self.scenario_id)
        if self.chains < 1 or self.replicates < 1:
            raise ValueError("need chains >= 1 and replicates >= 1")
        if not (0 <= self.warmup < self.iterations):
            raise ValueError("need 0 <= warmup < iterations")


@dataclass
class BenchRecord:
    scenario_id: str
    method: str
    replicate: int
    chains: int
    iterations: int
    warmup: int
    seed: int
    comp_time_s: float = np.nan
    min_ess: float = np.nan
    time_per_min_ess: float = np.nan
    max_rhat: float = np.nan
    divergences: int = 0
    status: str = "ok"

    def row(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario_id": self.scenario_id,
            "method": self.method,
            "replicate": self.replicate,
            "chains": self.chains,
            "iterations": self.iterations,
            "warmup": self.warmup,
            "seed": self.seed,
            "comp_time_s": _fmt(self.comp_time_s),
            "min_ess": _fmt(self.min_ess),
            "time_per_min_ess": _fmt(self.time_per_min_ess),
            "max_rhat": _fmt(self.max_rhat),
            "divergences": self.divergences,
            "status": self.status,
        }


def _fmt(v):
    return "" if (isinstance(v, float) and not np.isfinite(v)) else repr(float(v))


def _chain_stream(scenario_id, method, replicate, chain):
    key = f"{scenario_id}|{method}|{replicate}|{chain}".encode()
    return int.from_bytes(key, "big") % (1 << 63)


def _build_model(scenario):
    if scenario.kind == "mixture":
        return MixtureModel(scenario.n_components)
    return DawidSkeneModel(scenario.n_raters, scenario.n_categories)


def run_chain(model, data, method, iterations, warmup, rng):
    """One chain of the given method; returns ChainDraws."""
    if method == "nuts-marginal":
        cfg = NutsConfig(iterations=iterations, warmup=warmup)
        return nuts_run(model, data, cfg, rng)
    cfg = GibbsConfig(mode=_GIBBS_MODE[method], iterations=iterations,
                      warmup=warmup)
    return gibbs_run(model, data, cfg, rng)


def run_record(spec, replicate):
    """Execute one (scenario, method, replicate) cell serially."""
    scenario = get_scenario(spec.scenario_id)
    record = BenchRecord(scenario_id=spec.scenario_id, method=spec.method,
                         replicate=replicate, chains=spec.chains,
                         iterations=spec.iterations, warmup=spec.warmup,
                         seed=spec.master_seed)
    try:
        data, _ = gen_dataset(scenario, replicate, spec.master_seed)
        model = _build_model(scenario)
        chain_list = []
        for chain in range(spec.chains):
            rng = make_rng(spec.master_seed, _chain_stream(
                spec.scenario_id, spec.method, replicate, chain))
            chain_list.append(run_chain(model, data, spec.method,
                                        spec.iterations, spec.warmup, rng))
        report = efficiency_report(chain_list)
        record.comp_time_s = report["comp_time_s"]
        record.min_ess = report["min_ess"]
        record.time_per_min_ess = report["time_per_min_ess"]
        record.max_rhat = report["max_rhat"]
        record.divergences = report["divergences"]
    except Exception as exc:  # per-record tolerance: matrix must continue
        lines = str(exc).splitlines()   # status keeps the first line
        record.status = (f"error:{type(exc).__name__}"
                         + (f": {lines[0]}" if lines else ""))
    return record


def default_spec_list(master_seed=0, replicates=5, chains=3,
                      iterations=3000, warmup=1500):
    """The full benchmark matrix: every scenario x applicable method."""
    specs = []
    for scenario in scenario_catalog():
        for method in methods_for_scenario(scenario):
            specs.append(RunSpec(scenario_id=scenario.id, method=method,
                                 chains=chains, iterations=iterations,
                                 warmup=warmup, replicates=replicates,
                                 master_seed=master_seed))
    return specs


def run_matrix(spec_list, parallelism=1, sink=None, progress=None):
    """Run every replicate of every spec; crash-safe incremental output.

    `sink` is called with each finished BenchRecord (e.g. a CSV appender).
    With parallelism > 1, records are distributed across processes; the
    chains inside each record still run serially for timing isolation.
    """
    cells = [(spec, rep) for spec in spec_list
             for rep in range(1, spec.replicates + 1)]
    records = []

    def _finish(rec):
        records.append(rec)
        if sink is not None:
            sink(rec)
        if progress is not None:
            progress(rec)

    if parallelism <= 1:
        for spec, rep in cells:
            _finish(run_record(spec, rep))
    else:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=parallelism) as pool:
            futures = [pool.submit(run_record, spec, rep)
                       for spec, rep in cells]
            for fut in futures:   # completion order kept deterministic
                _finish(fut.result())
    return records


# ------------------------------------------------------------- persistence

def write_records_csv(path, records, append=False):
    exists = os.path.exists(path) and os.path.getsize(path) > 0
    mode = "a" if append else "w"
    with open(path, mode, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if not (append and exists):
            fh.write(f"# margmcmc results schema v{SCHEMA_VERSION}\n")
            writer.writeheader()
        for rec in records:
            writer.writerow(rec.row())


def write_records_jsonl(path, records, append=False):
    with open(path, "a" if append else "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.row()) + "\n")


def read_records(path):
    """Rows of a CSV or JSON-lines results file as dicts with numeric
    fields parsed; comments skipped.  Both hold `row()`'s values."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    if lines and lines[0].startswith("{"):
        rows = [json.loads(ln) for ln in lines]
    else:
        rows = [dict(raw) for raw in csv.DictReader(lines)]
    for row in rows:
        for key in ("replicate", "chains", "iterations", "warmup",
                    "seed", "divergences", "schema_version"):
            row[key] = int(row[key]) if row[key] else 0
        for key in ("comp_time_s", "min_ess", "time_per_min_ess",
                    "max_rhat"):
            row[key] = float(row[key]) if row[key] else np.nan
    return rows


# ------------------------------------------------------------ summarising

RHAT_THRESHOLD = 1.1

_SUMMARY_METRICS = ("comp_time_s", "min_ess", "time_per_min_ess", "max_rhat")


def _five_number(values):
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if v.size == 0:
        return None
    q = np.percentile(v, [0, 25, 50, 75, 100])
    return {"min": q[0], "q1": q[1], "median": q[2], "q3": q[3], "max": q[4]}


def summarise(rows):
    """Five-number summaries per (scenario, method) cell.

    Cells where any replicate's max-rhat exceeds 1.1 are flagged; cells
    with no successful replicate get an explicit gap marker.
    """
    cells = {}
    for row in rows:
        cells.setdefault((row["scenario_id"], row["method"]), []).append(row)
    out = []
    for (sid, method), cell in sorted(cells.items()):
        ok = [r for r in cell if r["status"] == "ok"]
        entry = {"scenario_id": sid, "method": method,
                 "n_records": len(cell), "n_ok": len(ok)}
        if not ok:
            entry["gap"] = True
            out.append(entry)
            continue
        entry["gap"] = False
        for metric in _SUMMARY_METRICS:
            entry[metric] = _five_number([r[metric] for r in ok])
        rhats = [r["max_rhat"] for r in ok if np.isfinite(r["max_rhat"])]
        entry["rhat_flag"] = bool(rhats and max(rhats) > RHAT_THRESHOLD)
        out.append(entry)
    return out


def summary_csv_rows(summary):
    """Flatten summarise() output into plot-ready CSV rows."""
    rows = []
    for entry in summary:
        row = {"scenario_id": entry["scenario_id"],
               "method": entry["method"],
               "n_records": entry["n_records"], "n_ok": entry["n_ok"],
               "gap": int(entry["gap"]),
               "rhat_flag": int(entry.get("rhat_flag", False))}
        for metric in _SUMMARY_METRICS:
            stats = entry.get(metric)
            for stat in ("min", "q1", "median", "q3", "max"):
                row[f"{metric}_{stat}"] = (
                    "" if stats is None else repr(float(stats[stat])))
        rows.append(row)
    return rows
