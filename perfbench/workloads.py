"""The benchmark's two workloads: catalog scenarios, arms and per-arm lengths.

A workload is a list of (method, iterations, warmup, records) arms on
one catalog scenario, run with 3 chains per record through
`harness.run_matrix(specs, parallelism=1)`.  The lengths were chosen so
that every arm converges (split-R-hat <= harness.RHAT_THRESHOLD) on
every seed tried, and so that one untraced run fits the run budget on a
2-core host.  NUTS keeps warmup >= 150 so that the windowed mass-matrix
adaptation (`nuts._adaptation_windows`) runs.
"""

from dataclasses import dataclass

CHAINS = 3
NOMINAL_SECONDS = 40


def round_seed(seed, r):
    """master_seed of round r (1-based); round 1 uses the seed itself."""
    return seed + 1_000_000 * (r - 1)


@dataclass(frozen=True)
class Arm:
    method: str
    iterations: int
    warmup: int
    records: int        # records (datasets) per run at NOMINAL_SECONDS


@dataclass(frozen=True)
class Workload:
    scenario_id: str
    arms: tuple

    def records(self, seconds):
        """Records per arm for a run of `seconds`: the nominal counts scaled
        by seconds / NOMINAL_SECONDS, at least one.  Fixed by the argument,
        never by measured speed."""
        scale = seconds / NOMINAL_SECONDS
        return {arm.method: max(1, int(arm.records * scale + 0.5))
                for arm in self.arms}

    def specs(self, seed, seconds, harness=None):
        """RunSpecs in round-robin order: round r holds one record of every
        arm that still has records left, on master_seed round_seed(seed, r).
        Interleaving spreads each arm over the whole run, so host-speed
        drift during a run affects every arm alike.  `harness` defaults to
        the program's; the import is deferred so that importing this module
        does not import the program."""
        if harness is None:
            from margmcmc import harness
        counts = self.records(seconds)
        return [harness.RunSpec(scenario_id=self.scenario_id,
                                method=arm.method, chains=CHAINS,
                                iterations=arm.iterations, warmup=arm.warmup,
                                replicates=1,
                                master_seed=round_seed(seed, r))
                for r in range(1, max(counts.values()) + 1)
                for arm in self.arms if counts[arm.method] >= r]

    def warmup_specs(self, master_seed):
        """One short single-chain record per arm, run before measuring so
        that lazy set-up and caches are warm."""
        from margmcmc import harness
        return [harness.RunSpec(scenario_id=self.scenario_id,
                                method=arm.method, chains=1, iterations=20,
                                warmup=10, replicates=1,
                                master_seed=master_seed)
                for arm in self.arms]

    def lengths(self, seconds):
        counts = self.records(seconds)
        return {arm.method: {"iterations": arm.iterations,
                             "warmup": arm.warmup, "chains": CHAINS,
                             "records": counts[arm.method]}
                for arm in self.arms}


WORKLOADS = {
    # Why each workload (also in BENCHMARK.json and DESIGN.md): on mix3 the
    # mixture fused gradient dominates NUTS, slice moves work on a few small
    # blocks and the Dawid-Skene kernels never run.
    "mix3": Workload(
        scenario_id="three-comp-4",
        arms=(
            Arm("nuts-marginal", 500, 250, 2),
            # The label-sampling arms trap chains on this scenario at short
            # lengths (gibbs-full split-R-hat 1.31 at 2000 iterations on one
            # dataset, 1.003 at 3000); see DESIGN.md.
            Arm("gibbs-full", 5000, 1000, 1),
            Arm("gibbs-marginal", 500, 250, 2),
        ),
    ),
    # On ds the Dawid-Skene gradient and many 4-stick simplex slice moves
    # dominate; the mixture kernel never runs.
    "ds": Workload(
        scenario_id="ds",
        arms=(
            Arm("nuts-marginal", 300, 150, 1),
            # cheap, so two records give it enough windows
            Arm("gibbs-full", 600, 300, 2),
            # 104 slice moves per sweep at ~50 ms/sweep: the shortest length
            # that converges (see DESIGN.md)
            Arm("gibbs-marginal", 200, 100, 1),
        ),
    ),
}
