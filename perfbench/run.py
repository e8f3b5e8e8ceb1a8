"""Per-arm sampler benchmark for margmcmc.

    python3 perfbench/run.py --workload {mix3,ds} [--seed N] [--seconds S]
                             [--trace 0|1]

Runs the workload's records through the public harness,
`harness.run_matrix(specs, parallelism=1)`: one caller, records one after
another, chains serial within a record, BLAS pinned to one thread.  The
seed is the harness's master_seed of the first round of records (see
`workloads.py`), so it fixes every dataset and chain.  `--seconds` sets the
run length as a whole number of records per arm (`Workload.records`),
never from the measured speed, so two commits always do the same work.

Every timing that is gated is paired with the same work done by a pinned
copy of the program (`pinned.py`, `meter.py`) and reported relative to
it, so the host's changing speed cancels.

Prints a readable report, then one JSON line with the end-to-end metrics
(`--trace 0`) or the per-layer metrics (`--trace 1`; an untraced pass, then
a traced pass of the same records).  Everything measured, with provenance,
spans and fingerprints, is written to `.perfbench/` in the checkout.
Exits 2 without a result when the program's sources are missing.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import gate
import layers
import meter
import pinned
from tracing import Patches, Recorder, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_PAIRS = 4
# The pinned copy's set-up time on the reference host at its usual speed
# (2 vCPUs): setup_s reads as seconds there.
SETUP_SCALE_S = 0.6
CPU_WALL_MIN = 0.9
# Accounting tolerance: the chains' summed span self time against the
# arm's comp_time_s; the chain span also covers chain set-up.
ACCOUNT_TOL = 0.03

def code_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "margmcmc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def declared_metrics():
    """(end-to-end, per-layer) name -> unit, as BENCHMARK.json lists them."""
    bench = json.loads(BENCHMARK.read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def setup_seconds(workload, seed, seconds):
    """Set-up time paired with the pinned copy's.  SETUP_PAIRS times, a
    fresh process imports the program, builds the specs and generates the
    datasets, and another does the same with the pinned copy, in turn.
    Returns (median ratio x SETUP_SCALE_S, [(program s, pinned s)]).  No
    timeout: with one, `wait` polls in steps of up to 50 ms, which would
    quantise the reading."""
    def once(src):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), src,
                        workload, str(seed), str(seconds)], check=True)
        return perf_counter() - t0

    pairs = [(once(str(SRC)), once("pinned")) for _ in range(SETUP_PAIRS)]
    ratio = statistics.median(prog / pin for prog, pin in pairs)
    return ratio * SETUP_SCALE_S, pairs


def run_pass(specs, modules, tracer=None, metered=None):
    recorder = Recorder(tracer)
    patches = Patches()
    try:
        recorder.install(patches, modules["harness"])
        if tracer is not None:
            tracer.install(patches, modules)
        if metered is not None:
            metered.install(patches, modules)
        w0, c0 = perf_counter(), process_time()
        modules["harness"].run_matrix(specs, parallelism=1)
        wall, cpu = perf_counter() - w0, process_time() - c0
    finally:
        patches.restore()
    return recorder.runs, wall, cpu


def sampler_seconds(runs):
    """Per arm: chains per record x median chain wall time (warmup +
    sampling) over all the arm's chains, a robust estimate of a record's
    comp_time_s.  An arm none of whose chains finished reports its
    records' median wall time instead (the run then fails the gate)."""
    out = {}
    for method in dict.fromkeys(r.record.method for r in runs):
        arm = [r for r in runs if r.record.method == method]
        chains = [c.wall_time for r in arm for c in r.chains]
        out[method] = (arm[0].record.chains * statistics.median(chains)
                       if chains else statistics.median(r.wall_s for r in arm))
    return out


def s_per_ess_by_arm(runs):
    out = {}
    for method in dict.fromkeys(r.record.method for r in runs):
        out[method] = statistics.median(
            r.record.time_per_min_ess for r in runs
            if r.record.method == method)
    return out


def e2e_unit(name):
    if name == "failed_frac":
        return "1"
    return "ratio" if name.startswith("rel_time.") else "s"


def finite_or_zero(v):
    return float(v) if v is not None and math.isfinite(v) else 0.0


def fmt(v):
    if v is None:
        return "-"
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def print_report(res, runs, tracer, traced_runs, rhat_threshold, units):
    """The readable part of the output; the JSON line follows it."""
    args, failures = res["args"], res["failures"]
    print(f"perfbench workload={args['workload']} seed={args['seed']} "
          f"seconds={args['seconds']:g} trace={args['trace']}")
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))
    print(f"pinned-copy bursts: {res['reference_total_s']:.2f} s of the "
          "run, inside the chains' comp_time_s; pinned chain restarts "
          + json.dumps(res["pinned_restarts"]))
    print("set-up pairs, program / pinned (s): " + " ".join(
        f"{p:.3f}/{q:.3f}" for p, q in res["setup_pairs_s"]))
    for method, (prog, pin) in res["per_unit_s"].items():
        if prog is not None:
            unit = pinned.ARM_UNIT[method][:-1]
            print(f"{method}: {prog * 1e6:.2f} us per {unit}, pinned copy "
                  f"{pin * 1e6:.2f} us (raw; they carry the host's speed)")
    print("records:")
    for run in runs:
        rec = run.record
        ratio = run.cpu_s / run.wall_s
        flag = "  TIMING-SUSPECT cpu/wall < 0.9" if ratio < CPU_WALL_MIN else ""
        print(f"  {gate.record_id(rec):44s} {rec.status:4s} "
              f"comp {rec.comp_time_s:8.3f}s min_ess {rec.min_ess:8.1f} "
              f"rhat {rec.max_rhat:.3f} s/ess {rec.time_per_min_ess:.5f} "
              f"cpu/wall {ratio:.3f}{flag}")
    for rid, reasons in sorted(failures.items()):
        for reason in reasons:
            print(f"FAIL {rid}: {reason}")
    print(f"correctness: {len(runs) - len(failures)}/{len(runs)} records pass"
          f" (split-R-hat <= {rhat_threshold}; cross-arm agreement "
          f"at family-wise alpha {gate.AGREE_ALPHA:g}; mixture means within "
          f"{gate.TRUTH_SDS:g} posterior sd of truth)")
    print("end-to-end:")
    for name, value in res["end_to_end"].items():
        print(f"  {name:40s} {fmt(value):>12s} {e2e_unit(name)}")
    print("per-layer:")
    for name, value in res["per_layer"].items():
        print(f"  {name:48s} {fmt(value):>12s} {units.get(name, '')}")
    if tracer is not None:
        for parent, (c, us) in layers.lse_by_parent(tracer).items():
            print(f"  stats.lse_rows under {parent}: {c} calls, {us:.3f} us self")
        for method, (chain_self, named, comp) in layers.accounting(
                tracer, traced_runs).items():
            gap = chain_self / comp - 1.0
            verdict = "ok" if abs(gap) <= ACCOUNT_TOL else "OUT OF TOLERANCE"
            print(f"  accounting {method}: span self times {chain_self:.3f}s vs"
                  f" comp_time_s {comp:.3f}s ({gap:+.2%}, tolerance "
                  f"{ACCOUNT_TOL:.0%}: {verdict}); {named:.1%} in named layers")
    fp = res["fingerprint"]
    print(f"fingerprint sha256 {gate.digest(fp)}")
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref = reference.get(f"{args['workload']}-trace{args['trace']}")
    if ref and ref["seed"] == args["seed"] and ref["seconds"] == args["seconds"]:
        moved = gate.compare(ref["records"], fp)
        print(f"determinism vs reference (code {ref['code_sha256'][:12]}): "
              + ("unchanged" if not moved else f"{len(moved)} moved"))
        for line in moved:
            print(f"  MOVED {line}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "margmcmc" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer_units = declared_metrics()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # A traced run makes two passes (untraced, then traced) over half the
    # records, so it takes about as long as an untraced run.
    seconds = args.seconds / 2 if args.trace else args.seconds
    # The end-to-end metrics come from untraced runs only, so a traced run
    # neither times set-up nor meters the samplers.
    setup_s, setup_pairs = (None, []) if args.trace else setup_seconds(
        args.workload, args.seed, seconds)

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from margmcmc import (dawid_skene, diagnostics, gibbs, harness, mixture,
                          nuts, simulate, transforms)
    modules = {"harness": harness, "nuts": nuts, "gibbs": gibbs,
               "mixture": mixture, "dawid_skene": dawid_skene,
               "transforms": transforms}
    specs = workload.specs(args.seed, seconds)

    harness.run_matrix(workload.warmup_specs(args.seed), parallelism=1)
    metered = None if args.trace else meter.Meter(workload.scenario_id,
                                                  args.seed)
    runs, wall_s, cpu_s = run_pass(specs, modules, metered=metered)

    failures = gate.check(runs, harness, diagnostics, simulate)
    fp = gate.fingerprint(runs)
    tracer = traced_runs = None
    if args.trace:
        tracer = Tracer()
        traced_runs, traced_wall, _ = run_pass(specs, modules, tracer)
        for run in traced_runs:
            rid = gate.record_id(run.record)
            if fp[rid]["draws_sha256"] != gate.draws_sha256(run.chains):
                failures.setdefault(rid, []).append(
                    "traced draws differ from untraced draws")
        fp = gate.fingerprint(runs, tracer.call_counts())

    e2e = {"setup_s": setup_s}
    windows = metered.windows if metered is not None else {}
    e2e.update({f"rel_time.{m}": metered.ratio(m) for m in windows})
    e2e.update({"wall_s": wall_s, "cpu_s": cpu_s})
    e2e.update({f"s_per_ess.{m}": v for m, v in s_per_ess_by_arm(runs).items()})
    e2e.update({f"sampler_s.{m}": v for m, v in sampler_seconds(runs).items()})
    e2e["failed_frac"] = len(failures) / len(runs)
    per_layer = {}
    for method in layers.ARMS:
        per_layer.update(layers.arm_metrics(runs, method))
    if tracer is not None:
        kind = simulate.get_scenario(workload.scenario_id).kind
        per_layer.update(layers.layer_metrics(tracer, traced_runs, runs, kind))
        per_layer["trace.overhead_frac"] = traced_wall / wall_s - 1.0

    res = {
        "args": vars(args),
        "provenance": {
            "code_sha256": code_sha256(),
            "pinned_sha256": pinned.PINNED_SHA256,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "seed": args.seed,
            "lengths": workload.lengths(seconds),
            "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                                   "OMP_NUM_THREADS")},
        },
        "reference_total_s": (metered.reference_total_s
                              if metered is not None else 0.0),
        "per_unit_s": {m: metered.per_unit_s(m) for m in windows},
        "pinned_restarts": ({m: ref.restarts for m, ref in
                             metered.references.items()}
                            if metered is not None else {}),
        "windows": windows,
        "setup_pairs_s": setup_pairs, "end_to_end": e2e, "per_layer": per_layer,
        "failures": failures, "fingerprint": fp,
        "timing_suspect": [gate.record_id(r.record) for r in runs
                           if r.cpu_s / r.wall_s < CPU_WALL_MIN],
        "records": [dict(r.record.row(), cpu_s=r.cpu_s, record_wall_s=r.wall_s,
                         error=r.error) for r in runs],
        "trace": tracer.dump() if tracer is not None else None,
    }
    print_report(res, runs, tracer, traced_runs, harness.RHAT_THRESHOLD,
                 per_layer_units)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(res, indent=1, default=str))
    print(f"wrote {out_path.relative_to(ROOT)}")

    wanted = per_layer_units if args.trace else end_to_end
    values = {**e2e, **per_layer}
    # A value is missing or not finite only when records failed (`correct`
    # is then false); 0 keeps the line valid JSON.
    metrics = {name: {"value": finite_or_zero(values.get(name)), "unit": unit}
               for name, unit in wanted.items()}
    print(json.dumps({"correct": not failures, "attempted": len(runs),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
