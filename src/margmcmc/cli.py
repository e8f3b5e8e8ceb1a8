"""Command line interface.

Subcommands:
  simulate   write benchmark datasets (plus .truth companions) to a directory
  run        execute the benchmark matrix and append rows to a CSV results file
  summarise  write one CSV row of five-number summaries per (scenario, method)

Exit codes: 0 success, 1 record failure(s), 2 usage error (one line).
"""

import argparse
import contextlib
import csv
import os
import sys

from . import harness as hz
from . import simulate as sim


class UsageError(Exception):
    """A request the subcommand cannot run; main() exits 2 with it."""


def _add_common_run_args(p):
    p.add_argument("--scenario", action="append", default=None,
                   help="scenario id (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--replicates", type=int, default=5)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="margmcmc",
        description="Benchmark marginalised vs full discrete-latent models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write benchmark datasets")
    _add_common_run_args(p_sim)
    p_sim.add_argument("--out", default=".", help="output directory")

    p_run = sub.add_parser("run", help="execute benchmark records")
    _add_common_run_args(p_run)
    p_run.add_argument("--method", action="append", default=None,
                       choices=list(hz.METHODS),
                       help="method arm (repeatable; default: all applicable)")
    p_run.add_argument("--chains", type=int, default=3)
    p_run.add_argument("--iterations", type=int, default=3000)
    p_run.add_argument("--warmup", type=int, default=1500)
    p_run.add_argument("--out", default="results.csv", help="results file")
    p_run.add_argument("--parallel", type=int, default=1,
                       help="records run concurrently (chains stay serial)")
    p_run.add_argument("--keep-going", action="store_true",
                       help="exit 0 even if some records errored")

    p_sum = sub.add_parser("summarise", help="aggregate a results file")
    p_sum.add_argument("results", help="results file of `run`")
    p_sum.add_argument("--out", default=None,
                       help="summary output file (default: stdout)")
    return parser


def _selected_scenarios(args):
    catalog = sim.scenario_catalog()
    if not args.scenario:
        return catalog
    by_id = {s.id: s for s in catalog}
    out = []
    for sid in args.scenario:
        if sid not in by_id:
            raise UsageError(f"unknown scenario {sid!r}; known: "
                             + ", ".join(by_id))
        out.append(by_id[sid])
    return out


def cmd_simulate(args):
    scenarios = _selected_scenarios(args)
    if args.replicates < 1:
        raise UsageError("need replicates >= 1")
    os.makedirs(args.out, exist_ok=True)
    for scenario in scenarios:
        for rep in range(1, args.replicates + 1):
            path = os.path.join(args.out, f"{scenario.id}-r{rep}.dat")
            sim.write_dataset(path, scenario, rep, args.seed)
            print(path)
    return 0


def _check_out_dir(path):
    out_dir = os.path.dirname(path) or "."
    if not os.path.isdir(out_dir):
        raise UsageError(f"output directory {out_dir} does not exist")


def _check_results_out(path):
    """`run` appends to `path`: refuse a file that is not a results file."""
    _check_out_dir(path)
    if os.path.isfile(path) and os.path.getsize(path) > 0:
        with open(path, "rb") as fh:
            if fh.readline() != hz.SCHEMA_LINE.encode():
                raise UsageError(f"{path} exists and is not a results file")


def run_specs(args):
    """The specs `run` executes: each selected scenario with each
    requested method that its model family has."""
    specs = []
    for scenario in _selected_scenarios(args):
        applicable = scenario.model().methods
        for method in args.method or applicable:
            if method not in applicable:
                print(f"skip: {method} not applicable to {scenario.id}",
                      file=sys.stderr)
                continue
            try:
                specs.append(hz.RunSpec(
                    scenario_id=scenario.id, method=method,
                    chains=args.chains, iterations=args.iterations,
                    warmup=args.warmup, replicates=args.replicates,
                    master_seed=args.seed))
            except ValueError as exc:
                raise UsageError(str(exc)) from None
    if not specs:
        raise UsageError("no runnable (scenario, method) cells")
    return specs


def cmd_run(args):
    if args.parallel < 1:
        raise UsageError("need parallel >= 1")
    specs = run_specs(args)
    _check_results_out(args.out)

    def on_record(rec):
        hz.write_records_csv(args.out, [rec])
        line = f"{rec.scenario_id} {rec.method} r{rec.replicate}: {rec.status}"
        if rec.status == "ok":
            line += (f" time={rec.comp_time_s:.1f}s min_ess={rec.min_ess:.1f}"
                     f" max_rhat={rec.max_rhat:.3f}")
        print(line, flush=True)

    records = hz.run_matrix(specs, parallelism=args.parallel,
                            on_record=on_record)
    failures = [r for r in records if r.status != "ok"]
    if failures:
        print(f"{len(failures)} of {len(records)} records failed",
              file=sys.stderr)
        return 0 if args.keep_going else 1
    return 0


def cmd_summarise(args):
    if args.out:
        _check_out_dir(args.out)
    try:
        rows = hz.read_records(args.results)
    except OSError as exc:
        raise UsageError(f"cannot read {args.results}: {exc.strerror}")
    except ValueError as exc:
        raise UsageError(f"{args.results} is not a results file: {exc}")
    if not rows:
        raise UsageError(f"no records in {args.results}")
    summary = hz.summarise(rows)
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        writer = csv.DictWriter(out, fieldnames=list(summary[0]))
        writer.writeheader()
        writer.writerows(summary)
    for e in summary:
        if e["rhat_flag"]:
            print(f"warning: {e['scenario_id']}/{e['method']} has max-rhat "
                  f"above {hz.RHAT_THRESHOLD}", file=sys.stderr)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"simulate": cmd_simulate, "run": cmd_run,
               "summarise": cmd_summarise}[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
