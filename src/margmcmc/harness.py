"""Benchmark harness: the one chain loop (`run_chain`), the scenario x
method x replicate matrix with diagnostics, an append-only CSV results
file and its per-cell summary.

Chains within a record always run serially so one record's clock is never
distorted by another.  Parallelism, when requested, spans records.
"""

import csv
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .dawid_skene import DawidSkeneModel
from .diagnostics import MIN_DRAWS, efficiency_report
from .gibbs import _STATE_CLASS
from .mixture import MixtureModel
from .nuts import NutsChain
from .simulate import gen_dataset, get_scenario
from .stats import make_rng

SCHEMA_VERSION = 1
SCHEMA_LINE = f"# margmcmc results schema v{SCHEMA_VERSION}\n"

# every arm of either model family, in the order the handles list them
METHODS = tuple(dict.fromkeys(MixtureModel.methods + DawidSkeneModel.methods))


def check_lengths(iterations, warmup):
    """Raise ValueError unless 0 <= warmup < iterations."""
    if not (0 <= warmup < iterations):
        raise ValueError("need 0 <= warmup < iterations")


@dataclass
class ChainDraws:
    draws: np.ndarray               # (n_kept, P) constrained parameter draws
    param_names: list
    warmup_time: float              # seconds spent in warmup iterations
    sampling_time: float            # seconds spent in kept iterations
    divergences: int = 0
    tree_depths: np.ndarray = None  # (n_kept,) NUTS only

    @property
    def wall_time(self):
        """Total computation time: warmup plus sampling."""
        return self.warmup_time + self.sampling_time


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
        if self.chains < 1 or self.replicates < 1 or self.master_seed < 0:
            raise ValueError("need chains >= 1, replicates >= 1, seed >= 0")
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
    """ChainDraws of `iterations` sweeps of the arm `method`'s chain
    state, the first `warmup` discarded.  Building the state is not timed
    (NUTS's first evaluation and step-size search, a Gibbs arm's draw from
    the prior); the warmup and the kept sweeps are.
    """
    if method not in model.methods:
        raise ValueError(f"{method!r} is not an arm of this model; "
                         f"its arms: {', '.join(model.methods)}")
    check_lengths(iterations, warmup)
    draws = np.empty((iterations - warmup, len(model.param_names())))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if method == "nuts-marginal":
            state = NutsChain(model, data, rng, warmup)
        else:
            state = _STATE_CLASS[type(model)](model, data, rng,
                                              model.init_params(rng), method)
        t0 = time.perf_counter()
        for _ in range(warmup):
            state.sweep()
        t1 = time.perf_counter()
        for draw in draws:
            state.sweep()
            draw[:] = model.flatten(state.params)
        t2 = time.perf_counter()
    chain = ChainDraws(draws, model.param_names(), t1 - t0, t2 - t1)
    if isinstance(state, NutsChain):
        chain.divergences = state.divergences
        chain.tree_depths = np.array(state.depths, dtype=np.int8)
    return chain


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
