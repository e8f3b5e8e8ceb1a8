"""The pinned copy of the program, the benchmark's ruler.

`pinned_src/margmcmc/` is a byte-for-byte copy of `src/margmcmc/` (all
modules but the command-line front end) as it stood when the benchmark
was defined; `PINNED_SHA256` is its digest and `load` checks it.  It is
imported under its own name, `margmcmc_pinned`, so it never shares a
module, a class or a patch with the program under test.

The host this benchmark was built on changes speed by a third between runs
minutes apart, and fixed numpy work tracks the program's slowdowns only
partly (see DESIGN.md).  So every timing is made in pairs: the program's
work, and beside it the same kind of work done by the pinned copy.  Their
ratio cancels the host's speed and moves only when the program changes.
"""

import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent / "pinned_src" / "margmcmc"
NAME = "margmcmc_pinned"
PINNED_SHA256 = ("4c0a26246b47850c4f4938ea50bfab29"
                 "f4995b78196a46faf03d67f9d9c75c59")

# The unit of work an arm's time is divided by: NUTS pays per gradient,
# the marginal Gibbs arm per slice-sampler density evaluation (how many a
# sweep makes depends on the data), the label-sampling arms per sweep.
ARM_UNIT = {"nuts-marginal": "grads", "gibbs-full": "sweeps",
            "gibbs-full-restricted": "sweeps", "gibbs-marginal": "evals"}


def tree_sha256(root=ROOT):
    h = hashlib.sha256()
    for path in sorted(root.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def load():
    """Import the pinned copy as `margmcmc_pinned` (once per process)."""
    if NAME in sys.modules:
        return sys.modules[NAME]
    digest = tree_sha256()
    if digest != PINNED_SHA256:
        raise RuntimeError(f"pinned copy under {ROOT} was modified "
                           f"(sha256 {digest}, expected {PINNED_SHA256})")
    spec = importlib.util.spec_from_file_location(
        NAME, ROOT / "__init__.py", submodule_search_locations=[str(ROOT)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[NAME] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def module(name):
    load()
    return importlib.import_module(f"{NAME}.{name}")


class Reference:
    """Bursts of one arm's work done by the pinned copy, on a dataset of
    the workload's scenario drawn from the benchmark seed.

    NUTS: gradient evaluations at a fixed cycle of points.  Gibbs arms: a
    chain of sweeps that carries on from burst to burst.  If a sweep raises
    an arithmetic or slice-sampler error (a chain started from the prior
    can overflow, as the program's can), the chain restarts from a fresh
    initial point and `restarts` counts it.
    """

    def __init__(self, scenario_id, method, seed):
        harness, gibbs = module("harness"), module("gibbs")
        simulate, stats = module("simulate"), module("stats")
        scenario = simulate.get_scenario(scenario_id)
        self.data, _ = simulate.gen_dataset(scenario, 1, seed)
        self.model = harness._build_model(scenario)
        self.rng = stats.make_rng(seed, 0)
        self.method = method
        self.unit = ARM_UNIT[method]
        self.restarts = 0
        self._gibbs = gibbs
        self._evals = 0
        if method == "nuts-marginal":
            self.points = self.rng.uniform(-1.0, 1.0, size=(16, self.model.n_dim))
            self._i = 0
        else:
            self._cls = (gibbs._MixtureGibbs if self.model.name == "mixture"
                         else gibbs._DawidSkeneGibbs)
            self._cfg = gibbs.GibbsConfig(mode=harness._GIBBS_MODE[method])
            self._state = None

    def _step(self):
        """One unit-bearing step; returns the units of work it did."""
        if self.method == "nuts-marginal":
            u = self.points[self._i % len(self.points)]
            self._i += 1
            self.model.log_post_grad_u(self.data, u)
            return 1
        if self._state is None:
            self._state = self._cls(self.model, self.data, self._cfg, self.rng,
                                    self.model.init_params(self.rng))
        evals = self._evals
        try:
            self._state.sweep()
        except (ArithmeticError, self._gibbs.SliceError):
            self._state = None
            self.restarts += 1
            return 0
        return self._evals - evals if self.unit == "evals" else 1

    def _counted_slice(self, slice_move):
        """The pinned slice sampler with its density evaluations counted
        (the program's are counted the same way, in `meter.py`)."""
        def counted_slice(logdensity, *args, **kwargs):
            def counted(x):
                self._evals += 1
                return logdensity(x)
            return slice_move(counted, *args, **kwargs)
        return counted_slice

    def burst(self, seconds):
        """Work for at least `seconds`; returns wall seconds per unit."""
        units = 0
        gibbs = self._gibbs
        slice_move = gibbs.slice_sample_1d
        gibbs.slice_sample_1d = self._counted_slice(slice_move)
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                t0 = perf_counter()
                while True:
                    units += self._step()
                    elapsed = perf_counter() - t0
                    if elapsed >= seconds and units:
                        return elapsed / units
        finally:
            gibbs.slice_sample_1d = slice_move
