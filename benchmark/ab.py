"""In-process A/B timing of one chain of two source trees.

    python benchmark/ab.py A_SRC B_SRC --scenario ds --method gibbs-marginal
        [--items N] [--rounds 20] [--sweeps 20] [--warmup 50] [--seed 1]

A_SRC and B_SRC are directories holding a `margmcmc/` package, for
example the `src/` of two checkouts.  Each is imported under its own
package name (`margmcmc_a`, `margmcmc_b`), as perfbench/pinned.py imports
its pinned copy, so both sides run in one process at one host speed.

Each side starts one chain of the arm through its tree's
`harness.start_chain`, as `run_chain` does, on the same dataset
(replicate 1 of the scenario at master seed --seed; --items sets a rating
model's item count) and the same chain stream, then runs --warmup sweeps
untimed (a NUTS chain adapts over them).  A tree older than `start_chain`
or `make_rng`'s string keys needs an older `ab.py`.  Each round then
times --sweeps sweeps of each side's chain with perf_counter, the side
that runs first alternating from round to round.

Prints the median time per sweep (a NUTS sweep is one transition) of each
side, the median of the rounds' B/A ratios and in how many rounds B was
lower, and whether the two chains' final states (parameters and
generator) are bit-identical.  Two chains that drew differently did
different work, so then no gain is reported.  The last line is one JSON
object, for a BENCH_*.json file.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import importlib
import importlib.util
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np


def load(src, name):
    """The `margmcmc` package under `src` imported as `name` (once)."""
    root = Path(src).resolve() / "margmcmc"
    pkg = sys.modules.get(name)
    if pkg is not None and Path(pkg.__file__).parent == root:
        return pkg
    for mod in [m for m in sys.modules if m.split(".")[0] == name]:
        del sys.modules[mod]
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


class Side:
    """One tree's chain of the arm, started by its harness.start_chain."""

    def __init__(self, src, name, args):
        load(src, name)
        sim, stats, harness = (importlib.import_module(f"{name}.{mod}")
                               for mod in ("simulate", "stats", "harness"))
        scenario = sim.get_scenario(args.scenario)
        if args.items is not None:
            if not hasattr(scenario, "n_items"):
                raise SystemExit(f"ab.py: --items needs a rating-model "
                                 f"scenario, not {args.scenario!r}")
            scenario = dataclasses.replace(scenario, n_items=args.items)
        data, _ = sim.gen_dataset(scenario, 1, args.seed)
        model = scenario.model()
        self.rng = stats.make_rng(
            args.seed, f"{args.scenario}|{args.method}|1|0")
        self.flatten, self.times = model.flatten, []
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            self.chain = harness.start_chain(model, data, args.method,
                                             args.warmup, self.rng)
        self.run(args.warmup)

    def run(self, sweeps):
        sweep = self.chain.sweep
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t0 = perf_counter()
            for _ in range(sweeps):
                sweep()
            return perf_counter() - t0

    def final_state(self):
        return (self.flatten(self.chain.params).tobytes(),
                self.rng.bit_generator.state)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src")
    parser.add_argument("b_src")
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--method", required=True)
    parser.add_argument("--items", type=int, default=None,
                        help="item count of a rating-model scenario")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--sweeps", type=int, default=20)
    parser.add_argument("--warmup", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.sweeps < 1 or args.warmup < 0:
        parser.error("need --rounds and --sweeps >= 1 and --warmup >= 0")

    sides = [Side(args.a_src, "margmcmc_a", args),
             Side(args.b_src, "margmcmc_b", args)]
    for r in range(args.rounds):
        for side in sides[::-1] if r % 2 else sides:
            side.times.append(side.run(args.sweeps) / args.sweeps)
    a, b = (side.times for side in sides)
    ratios = [tb / ta for ta, tb in zip(a, b)]
    lower = sum(tb < ta for ta, tb in zip(a, b))
    identical = sides[0].final_state() == sides[1].final_state()
    ratio = statistics.median(ratios)
    result = {
        "scenario": args.scenario, "method": args.method,
        "items": args.items, "seed": args.seed, "warmup": args.warmup,
        "rounds": args.rounds, "sweeps_per_round": args.sweeps,
        "a_us_per_sweep_median": round(statistics.median(a) * 1e6, 2),
        "b_us_per_sweep_median": round(statistics.median(b) * 1e6, 2),
        "median_ratio": round(ratio, 4),
        "b_lower_in": f"{lower} of {args.rounds}",
        "identical_final_state": identical,
        "gain": round(1.0 - ratio, 4) if identical else None}
    print(f"{args.scenario} {args.method}"
          + (f" at {args.items} items" if args.items else "")
          + f": {args.rounds} rounds of {args.sweeps} sweeps")
    print(f"  A {result['a_us_per_sweep_median']:.2f} us per sweep, "
          f"B {result['b_us_per_sweep_median']:.2f} (medians)")
    print(f"  B/A median ratio {ratio:.4f}, B lower in {lower} of "
          f"{args.rounds} rounds")
    print("  final states bit-identical" if identical else
          "  final states differ: the chains did different work, "
          "no gain reported")
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
