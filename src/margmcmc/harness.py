"""Benchmark harness: scenario x method x replicate matrix with timing,
diagnostics, an append-only CSV results file and its per-cell summary.

Timing covers warmup plus sampling wall time only; chains within a record
always run serially so one record's clock is never distorted by another.
Parallelism, when requested, is applied across records.
"""

import csv
import os
from dataclasses import dataclass, fields

import numpy as np

from .dawid_skene import DawidSkeneModel
from .diagnostics import MIN_DRAWS, efficiency_report
from .draws import check_lengths
from .gibbs import gibbs_run
from .mixture import MixtureModel
from .nuts import nuts_run
from .simulate import gen_dataset, get_scenario
from .stats import make_rng

SCHEMA_VERSION = 1
SCHEMA_LINE = f"# margmcmc results schema v{SCHEMA_VERSION}\n"

# every arm of either model family, in the order the handles list them
METHODS = tuple(dict.fromkeys(MixtureModel.methods + DawidSkeneModel.methods))


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
        check_lengths(self.iterations, self.warmup)
        if self.iterations - self.warmup < MIN_DRAWS:
            raise ValueError(f"need at least {MIN_DRAWS} kept draws per chain")


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
        """The record as a results row: the schema version, then each
        field, a float one formatted by `_fmt`."""
        row = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            row[f.name] = _fmt(value) if f.type is float else value
        return row


# results columns, the type each is read as, and what an empty field reads as
_COLUMN_TYPES = {"schema_version": int} | {
    f.name: f.type for f in fields(BenchRecord)}
CSV_COLUMNS = tuple(_COLUMN_TYPES)
_EMPTY = {int: 0, float: np.nan, str: ""}


def _fmt(v):
    return "" if (isinstance(v, float) and not np.isfinite(v)) else repr(float(v))


def _chain_stream(scenario_id, method, replicate, chain):
    # only the key's last 8 bytes count: keys ending alike share a stream
    key = f"{scenario_id}|{method}|{replicate}|{chain}".encode()
    return int.from_bytes(key, "big") % (1 << 63)


def run_chain(model, data, method, iterations, warmup, rng):
    """One chain of the given method; returns ChainDraws."""
    if method == "nuts-marginal":
        return nuts_run(model, data, iterations, warmup, rng)
    return gibbs_run(model, data, method, iterations, warmup, rng)


def run_record(spec, replicate):
    """Execute one (scenario, method, replicate) cell serially."""
    scenario = get_scenario(spec.scenario_id)
    record = BenchRecord(scenario_id=spec.scenario_id, method=spec.method,
                         replicate=replicate, chains=spec.chains,
                         iterations=spec.iterations, warmup=spec.warmup,
                         seed=spec.master_seed)
    try:
        data, _ = gen_dataset(scenario, replicate, spec.master_seed)
        model = scenario.model()
        chain_list = []
        for chain in range(spec.chains):
            rng = make_rng(spec.master_seed, _chain_stream(
                spec.scenario_id, spec.method, replicate, chain))
            chain_list.append(run_chain(model, data, spec.method,
                                        spec.iterations, spec.warmup, rng))
        vars(record).update(efficiency_report(chain_list))
    except Exception as exc:  # per-record tolerance: matrix must continue
        lines = str(exc).splitlines()   # status keeps the first line
        record.status = (f"error:{type(exc).__name__}"
                         + (f": {lines[0]}" if lines else ""))
    return record


def run_matrix(spec_list, parallelism=1, on_record=None):
    """Run every replicate of every spec; crash-safe incremental output.

    `on_record` is called with each finished BenchRecord (e.g. to append
    it to a results file).  With parallelism > 1, records are distributed
    across processes; the chains inside each record still run serially
    for timing isolation.
    """
    cells = [(spec, rep) for spec in spec_list
             for rep in range(1, spec.replicates + 1)]
    records = []

    def _finish(rec):
        records.append(rec)
        if on_record is not None:
            on_record(rec)

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

def write_records_csv(path, records):
    """Append `records` to a CSV results file, starting the file with the
    schema line and the header if it is missing or empty."""
    new = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if new:
            fh.write(SCHEMA_LINE)
            writer.writeheader()
        for rec in records:
            writer.writerow(rec.row())


def read_records(path):
    """Rows of a CSV results file as dicts, each column converted to the
    type of its BenchRecord field (`schema_version` is an int; an empty
    field is nan, 0 or ""); comment lines are skipped.  A row without one
    of the columns, by the header or because it is cut short, raises
    ValueError naming the first one missing."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    for row in rows:
        missing = [key for key in CSV_COLUMNS if row.get(key) is None]
        if missing:
            raise ValueError(f"missing column {missing[0]!r}")
        for key, kind in _COLUMN_TYPES.items():
            row[key] = kind(row[key]) if row[key] else _EMPTY[kind]
    return rows


# ------------------------------------------------------------ summarising

RHAT_THRESHOLD = 1.1

_SUMMARY_METRICS = ("comp_time_s", "min_ess", "time_per_min_ess", "max_rhat")
_SUMMARY_STATS = ("min", "q1", "median", "q3", "max")


def summarise(rows):
    """One flat row per (scenario, method) cell, in sorted order: `gap` is
    1 if no record is `ok`, `rhat_flag` is 1 if an ok record's max-rhat
    exceeds RHAT_THRESHOLD, and `<metric>_<stat>` is the min, q1, median,
    q3 or max of the ok records' finite values, or None if there are none.
    """
    cells = {}
    for row in rows:
        cells.setdefault((row["scenario_id"], row["method"]), []).append(row)
    out = []
    for (sid, method), cell in sorted(cells.items()):
        ok = [r for r in cell if r["status"] == "ok"]
        rhats = [r["max_rhat"] for r in ok if np.isfinite(r["max_rhat"])]
        entry = {"scenario_id": sid, "method": method,
                 "n_records": len(cell), "n_ok": len(ok), "gap": int(not ok),
                 "rhat_flag": int(bool(rhats) and max(rhats) > RHAT_THRESHOLD)}
        for metric in _SUMMARY_METRICS:
            v = np.array([r[metric] for r in ok], dtype=float)
            v = v[np.isfinite(v)]
            q = (np.percentile(v, [0, 25, 50, 75, 100]).tolist() if v.size
                 else [None] * len(_SUMMARY_STATS))
            entry.update((f"{metric}_{stat}", value)
                         for stat, value in zip(_SUMMARY_STATS, q))
        out.append(entry)
    return out
