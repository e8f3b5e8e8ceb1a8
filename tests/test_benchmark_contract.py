"""The benchmark's hooks, called the way the benchmark calls them.

`perfbench/` replaces program functions from outside `src/` (its tracer,
its meter and its recorder) and calls the originals with the arguments
it saw.  `test_src_references.py` only checks that the names exist; a
changed signature would pass it and fail every benchmark record.  Here
one tiny record per arm runs through `harness.run_matrix` on each
benchmark scenario with perfbench's own instrumentation installed,
imported from `perfbench/` unedited.
"""

import sys
from pathlib import Path

import pytest

from margmcmc import (dawid_skene, gibbs, harness, mixture, nuts,
                      simulate, transforms)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCENARIOS = ("three-comp-4", "ds")      # the mix3 and ds workloads
MODULES = {"harness": harness, "nuts": nuts, "gibbs": gibbs,
           "mixture": mixture, "dawid_skene": dawid_skene,
           "transforms": transforms}


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's `tracing` and `meter`, unloaded again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    import meter
    import tracing
    yield tracing, meter
    for name in set(sys.modules) - before:
        if name in ("tracing", "meter", "pinned") \
                or name.startswith("margmcmc_pinned"):
            del sys.modules[name]


def test_hooks_keep_the_benchmark_call_contract(perfbench):
    tracing, meter = perfbench
    calls = {}          # (owner, name, install order) -> calls, all runs

    class CountingPatches(tracing.Patches):
        """Counts the calls of every replacement the benchmark installs."""

        def __init__(self):
            super().__init__()
            self.installed = 0

        def set(self, owner, name, value):
            key = (getattr(owner, "__name__", owner), name, self.installed)
            self.installed += 1
            calls.setdefault(key, 0)

            def counted(*args, **kwargs):
                calls[key] += 1
                return value(*args, **kwargs)

            super().set(owner, name, counted)

    for scenario_id in SCENARIOS:
        methods = simulate.get_scenario(scenario_id).model().methods
        specs = [harness.RunSpec(scenario_id=scenario_id, method=m,
                                 chains=1, iterations=20, warmup=10,
                                 replicates=1, master_seed=3)
                 for m in methods]
        tracer = tracing.Tracer()
        metered = meter.Meter(scenario_id, 3)
        recorder = tracing.Recorder(tracer)
        patches = CountingPatches()
        try:
            recorder.install(patches, harness)
            tracer.install(patches, MODULES)
            metered.install(patches, MODULES)
            records = harness.run_matrix(specs, parallelism=1)
        finally:
            patches.restore()
        assert [(r.method, r.status) for r in records] \
            == [(m, "ok") for m in methods], \
            [run.error for run in recorder.runs]
        for m in methods:           # every arm did metered work
            assert metered.ratio(m) is not None, m
    never = sorted(key[:2] for key, n in calls.items() if n == 0)
    assert never == []
