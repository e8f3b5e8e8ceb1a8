"""Sampler time per unit of work, paired with the pinned copy's.

* `Meter` times every NUTS transition and every Gibbs sweep of the
  program, and counts the work each does: gradient evaluations,
  slice-sampler density evaluations, sweeps.
* After every WINDOW_S seconds of sampler time, and at the start and end
  of every chain, it runs a REFERENCE_S burst of the same arm's work done
  by the pinned copy (`pinned.Reference`), between two iterations.  The
  program's sampler time between two bursts is a window.  A burst runs
  whole sweeps, so where one sweep outlasts REFERENCE_S the windows
  lengthen to keep the bursts within 1/WINDOW_PER_BURST of the run.
* A window's reading is the program's seconds per unit of the arm's work
  (`pinned.ARM_UNIT`) divided by the mean of the pinned copy's seconds per
  unit in the bursts on either side.  An arm's metric is the median of its
  windows' readings: 1.0 means as fast as the pinned copy, 0.5 twice as
  fast.

The bursts use their own data and random streams, so metered draws are
bit-identical to unmetered ones.  Their time lands inside the harness's
own chain timings (`comp_time_s`); the report prints how much.
"""

import statistics
from time import perf_counter

import pinned

WINDOW_S = 0.1
REFERENCE_S = 0.01
WINDOW_PER_BURST = 10


class Meter:
    """Per-arm windows of (sampler seconds, grads, slice evals, sweeps,
    pinned seconds per unit), collected while installed."""

    UNITS = ("grads", "evals", "sweeps")

    def __init__(self, scenario_id, seed):
        self.scenario_id, self.seed = scenario_id, seed
        self.windows = {}       # method -> list of window tuples
        self.references = {}    # method -> pinned.Reference
        self.reference_total_s = 0.0
        self._method = None
        self._last = None       # the last burst's seconds per unit
        self._window_s = WINDOW_S
        self._time = 0.0
        self._counts = dict.fromkeys(self.UNITS, 0)
        self._calls = {"grads": 0, "evals": 0}     # running totals

    def _reset(self):
        self._time = 0.0
        for unit in self.UNITS:
            self._counts[unit] = 0

    def _burst(self):
        ref = self.references.get(self._method)
        if ref is None:
            ref = self.references[self._method] = pinned.Reference(
                self.scenario_id, self._method, self.seed)
        t0 = perf_counter()
        per_unit = ref.burst(REFERENCE_S)
        took = perf_counter() - t0
        self.reference_total_s += took
        self._window_s = max(WINDOW_S, WINDOW_PER_BURST * took)
        return per_unit

    def _close(self):
        """End the current window with a reference burst."""
        per_unit = self._burst()
        if self._time > 0.0:
            c = self._counts
            self.windows.setdefault(self._method, []).append(
                (self._time, c["grads"], c["evals"], c["sweeps"],
                 (self._last + per_unit) / 2.0))
        self._last = per_unit
        self._reset()

    def _timed(self, fn, args, sweeps):
        """Time one transition or sweep and add the work it did (counted
        by the wrappers in `_calls`) to the window."""
        calls, counts = self._calls, self._counts
        grads, evals = calls["grads"], calls["evals"]
        t0 = perf_counter()
        out = fn(*args)
        self._time += perf_counter() - t0
        counts["grads"] += calls["grads"] - grads
        counts["evals"] += calls["evals"] - evals
        counts["sweeps"] += sweeps
        if self._time >= self._window_s:
            self._close()
        return out

    def install(self, patches, modules):
        harness, nuts, gibbs = modules["harness"], modules["nuts"], modules["gibbs"]
        calls = self._calls

        run_chain = harness.run_chain

        def chain_wrapper(model, data, method, *args, **kwargs):
            self._method = method
            self._reset()
            self._last = self._burst()
            try:
                return run_chain(model, data, method, *args, **kwargs)
            finally:
                self._close()

        patches.set(harness, "run_chain", chain_wrapper)

        transition = nuts._NutsKernel.transition

        def transition_wrapper(kernel, state, step_size):
            return self._timed(transition, (kernel, state, step_size), 0)

        patches.set(nuts._NutsKernel, "transition", transition_wrapper)

        for cls in (gibbs._MixtureGibbs, gibbs._DawidSkeneGibbs):
            def sweep_wrapper(state, _sweep=cls.sweep):
                return self._timed(_sweep, (state,), 1)
            patches.set(cls, "sweep", sweep_wrapper)

        for cls in (modules["mixture"].MixtureModel,
                    modules["dawid_skene"].DawidSkeneModel):
            def grad_wrapper(model, data, u, _grad=cls.log_post_grad_u):
                calls["grads"] += 1
                return _grad(model, data, u)
            patches.set(cls, "log_post_grad_u", grad_wrapper)

        slice_move = gibbs.slice_sample_1d

        def slice_wrapper(logdensity, *args, **kwargs):
            def counted(x):
                calls["evals"] += 1
                return logdensity(x)
            return slice_move(counted, *args, **kwargs)

        patches.set(gibbs, "slice_sample_1d", slice_wrapper)

    def ratio(self, method):
        """Median over the arm's windows of the program's seconds per unit
        over the pinned copy's; None if the arm did no work."""
        k = 1 + self.UNITS.index(pinned.ARM_UNIT[method])
        ratios = [w[0] / w[k] / w[4] for w in self.windows.get(method, ())
                  if w[k]]
        return statistics.median(ratios) if ratios else None

    def per_unit_s(self, method):
        """(program, pinned) seconds per unit over the whole run, raw: they
        carry the host's speed, so they are printed, not compared."""
        k = 1 + self.UNITS.index(pinned.ARM_UNIT[method])
        ws = [w for w in self.windows.get(method, ()) if w[k]]
        if not ws:
            return None, None
        return (sum(w[0] for w in ws) / sum(w[k] for w in ws),
                statistics.median(w[4] for w in ws))
