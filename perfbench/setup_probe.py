"""One set-up, timed from outside: import the program, build the
workload's specs and generate every record's dataset, then exit.

    python3 perfbench/setup_probe.py <src dir> <workload> <seed> <seconds>
    python3 perfbench/setup_probe.py pinned <workload> <seed> <seconds>

The second form does the same with the pinned copy (`pinned.py`).  run.py
starts the two forms in turn and compares their wall times from process
start to exit.
"""

import sys

if __name__ == "__main__":
    src, workload, seed, seconds = sys.argv[1:5]
    if src == "pinned":
        import pinned
        pkg = pinned.load()
        harness, simulate = pkg.harness, pkg.simulate
    else:
        sys.path.insert(0, src)
        from margmcmc import harness, simulate
    from workloads import WORKLOADS

    for spec in WORKLOADS[workload].specs(int(seed), float(seconds), harness):
        scenario = simulate.get_scenario(spec.scenario_id)
        for rep in range(1, spec.replicates + 1):
            simulate.gen_dataset(scenario, rep, spec.master_seed)
