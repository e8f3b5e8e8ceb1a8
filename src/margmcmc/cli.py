"""Command line interface.

Subcommands:
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="margmcmc",
        description="Benchmark marginalised vs full discrete-latent models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute benchmark records")
    p_run.add_argument("--scenario", action="append", default=None,
                       help="scenario id (repeatable; default: all)")
    p_run.add_argument("--seed", type=int, default=0, help="master seed")
    p_run.add_argument("--replicates", type=int, default=5)
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
    if not args.scenario:
        return sim.scenario_catalog()
    try:
        return [sim.get_scenario(sid) for sid in dict.fromkeys(args.scenario)]
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def _check_out_dir(path):
    """Refuse an output path that names a directory or lies in a missing
    one."""
    if os.path.isdir(path):
        raise UsageError(f"output {path} is a directory")
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
    requested method that its model family has, a repeated scenario or
    method counted once, in first-seen order."""
    specs = []
    for scenario in _selected_scenarios(args):
        applicable = scenario.model().methods
        for method in dict.fromkeys(args.method or applicable):
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
    if (args.out and os.path.exists(args.out)
            and os.path.samefile(args.out, args.results)):
        raise UsageError(f"output {args.out} is the results file")
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
    handler = {"run": cmd_run, "summarise": cmd_summarise}[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
