"""Instrumentation installed from outside the program.

Both kinds of instrumentation replace public functions at the names their
callers look up (module globals and class attributes), and put the
originals back afterwards; `src/` is never edited.

* `Recorder` (every pass): keeps each record's chains, wall time and
  process CPU time, which `harness.run_record` does not return.
* `Tracer` (traced pass only): spans at every layer boundary.  Coarse
  spans (record, chain, dataset, report, step-size search) are kept
  individually; hot leaf calls (about 10^6 per ds chain) are kept as
  per-(record, name, parent) aggregates of count, total and self time,
  so memory stays bounded.  Self time is a span's duration minus the time
  its traced children cover.
"""

import functools
from dataclasses import dataclass, field
from time import perf_counter, process_time


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


@dataclass
class RecordRun:
    record: object              # harness.BenchRecord
    chains: list                # ChainDraws of the chains that finished
    wall_s: float
    cpu_s: float
    error: str = None           # the exception the harness reduced to a status


class Recorder:
    """Captures every record's chains and its wall/CPU time."""

    def __init__(self, tracer=None):
        self.runs = []
        self.tracer = tracer
        self._chains = None
        self._error = None

    def install(self, patches, harness):
        run_record, run_chain = harness.run_record, harness.run_chain
        tracer = self.tracer
        if tracer is not None:
            run_record = tracer.wrap("harness.run_record", run_record, keep=True)
            run_chain = tracer.wrap("harness.run_chain", run_chain, keep=True)

        def record_wrapper(spec, replicate):
            self._chains, self._error = [], None
            if tracer is not None:
                tracer.begin_record(f"{spec.scenario_id}|{spec.method}|"
                                    f"seed{spec.master_seed}|r{replicate}",
                                    spec.method)
            w0, c0 = perf_counter(), process_time()
            rec = run_record(spec, replicate)
            self.runs.append(RecordRun(rec, self._chains,
                                       perf_counter() - w0,
                                       process_time() - c0, self._error))
            return rec

        def chain_wrapper(*args, **kwargs):
            try:
                chain = run_chain(*args, **kwargs)
            except Exception as exc:
                self._error = f"{type(exc).__name__}: {exc}"
                raise
            self._chains.append(chain)
            return chain

        patches.set(harness, "run_record", record_wrapper)
        patches.set(harness, "run_chain", chain_wrapper)


@dataclass
class NutsStats:
    transitions: int = 0
    depth_sum: int = 0
    accept_sum: float = 0.0
    divergences: int = 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)   # (record, name, parent, t0, t1)
    agg: dict = field(default_factory=dict)     # (record, name, parent) -> [n, total, self]
    methods: dict = field(default_factory=dict)  # record id -> method
    nuts: dict = field(default_factory=dict)     # record id -> NutsStats
    record_id: str = None
    _stack: list = field(default_factory=list)  # [name, child time]

    def begin_record(self, record_id, method):
        self.record_id = record_id
        self.methods[record_id] = method

    def call(self, name, fn, args, kwargs, keep=False):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            key = (self.record_id, name, parent)
            acc = self.agg.get(key)
            if acc is None:
                self.agg[key] = [1, dur, dur - frame[1]]
            else:
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[1]
            if keep:
                self.spans.append((self.record_id, name, parent, t0, t1))

    def wrap(self, name, fn, keep=False):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, keep)
        return functools.update_wrapper(wrapper, fn)

    def install(self, patches, modules):
        """Wrap every layer boundary below the record and chain spans."""
        harness, nuts, gibbs = modules["harness"], modules["nuts"], modules["gibbs"]
        mixture, dawid_skene = modules["mixture"], modules["dawid_skene"]
        transforms = modules["transforms"]

        patches.set(harness, "gen_dataset",
                    self.wrap("simulate.gen_dataset", harness.gen_dataset, keep=True))
        patches.set(harness, "efficiency_report",
                    self.wrap("diagnostics.efficiency_report",
                              harness.efficiency_report, keep=True))
        patches.set(nuts, "find_reasonable_step_size",
                    self.wrap("nuts.find_reasonable_step_size",
                              nuts.find_reasonable_step_size, keep=True))

        transition = nuts._NutsKernel.transition

        def transition_wrapper(kernel, state, step_size):
            out = self.call("nuts.transition", transition,
                            (kernel, state, step_size), {})
            st = self.nuts.setdefault(self.record_id, NutsStats())
            st.transitions += 1
            st.accept_sum += out[1]
            st.depth_sum += out[2]
            st.divergences += bool(out[3])
            return out

        patches.set(nuts._NutsKernel, "transition", transition_wrapper)
        patches.set(mixture.MixtureModel, "log_post_grad_u",
                    self.wrap("mixture.log_post_grad_u",
                              mixture.MixtureModel.log_post_grad_u))
        patches.set(dawid_skene.DawidSkeneModel, "log_post_grad_u",
                    self.wrap("dawid_skene.log_post_grad_u",
                              dawid_skene.DawidSkeneModel.log_post_grad_u))

        slice_move = gibbs.slice_sample_1d

        def slice_wrapper(logdensity, *args, **kwargs):
            def counted(x):
                return self.call("gibbs.slice_eval", logdensity, (x,), {})
            return self.call("gibbs.slice_move", slice_move,
                             (counted,) + args, kwargs)

        patches.set(gibbs, "slice_sample_1d", slice_wrapper)
        for name in ("update_z_block", "update_pi_conjugate",
                     "update_theta_conjugate"):
            patches.set(gibbs, name, self.wrap(f"gibbs.{name}", getattr(gibbs, name)))
        for name in ("constrain_simplex", "grad_simplex",
                     "constrain_simplex_rows", "grad_simplex_rows"):
            patches.set(transforms, name,
                        self.wrap(f"transforms.{name}", getattr(transforms, name)))
        for module in (mixture, gibbs, dawid_skene):
            patches.set(module, "lse_rows",
                        self.wrap("stats.lse_rows", module.lse_rows))

    # --------------------------------------------------------- summaries

    def totals(self, name, parent=None, records=None):
        """(count, total s, self s) of `name`, optionally restricted to a
        parent name and a set of record ids."""
        n = total = self_s = 0.0
        for (rid, nm, par), (c, t, s) in self.agg.items():
            if nm != name or (parent is not None and par != parent):
                continue
            if records is not None and rid not in records:
                continue
            n += c
            total += t
            self_s += s
        return int(n), total, self_s

    def call_counts(self):
        """record id -> {"<name>_calls": count} summed over parents."""
        out = {}
        for (rid, name, _), (c, _, _) in self.agg.items():
            per = out.setdefault(rid, {})
            per[f"{name}_calls"] = per.get(f"{name}_calls", 0) + c
        return out

    def records_of(self, method):
        return {rid for rid, m in self.methods.items() if m == method}

    def chain_self_s(self, records):
        """Summed self time of every span inside the records' chains."""
        outside = {"harness.run_record", "simulate.gen_dataset",
                   "diagnostics.efficiency_report"}
        return sum(s for (rid, nm, _), (_, _, s) in self.agg.items()
                   if rid in records and nm not in outside)

    def dump(self):
        return {
            "spans": [{"record": r, "name": n, "parent": p,
                       "start": t0, "end": t1}
                      for r, n, p, t0, t1 in self.spans],
            "aggregates": [{"record": r, "name": n, "parent": p, "count": c,
                            "total_s": t, "self_s": s}
                           for (r, n, p), (c, t, s) in sorted(
                               self.agg.items(), key=lambda kv: str(kv[0]))],
            "nuts": {rid: vars(st) for rid, st in self.nuts.items()},
        }
