"""Diagnostics oracles: known-autocorrelation ESS targets, split-Rhat
behaviour, and the efficiency report identities."""

import numpy as np
import pytest

from margmcmc.diagnostics import efficiency_report, ess, split_rhat
from margmcmc.draws import ChainDraws
from margmcmc.stats import make_rng


def ar1(n, rho, rng):
    x = np.empty(n)
    x[0] = rng.standard_normal() / np.sqrt(1 - rho * rho)
    eps = rng.standard_normal(n)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + eps[i]
    return x


class TestEss:
    def test_iid_near_nominal(self):
        chains = make_rng(70).standard_normal((1, 10_000))
        assert ess(chains) == pytest.approx(10_000, rel=0.15)

    def test_ar1_known_factor(self):
        # integrated autocorrelation time of AR(1): (1+rho)/(1-rho) = 19
        rng = make_rng(71)
        chains = np.array([ar1(100_000, 0.9, rng)])
        assert ess(chains) == pytest.approx(100_000 / 19, rel=0.2)

    def test_capped_at_total_draws(self):
        # antithetic chains push the naive estimate above the cap
        rng = make_rng(72)
        x = ar1(5000, -0.9, rng)
        assert ess(np.array([x])) <= 5000

    def test_multichain_combines(self):
        rng = make_rng(73)
        chains = rng.standard_normal((4, 2000))
        assert ess(chains) == pytest.approx(8000, rel=0.15)

    def test_separated_chains_small_ess(self):
        rng = make_rng(74)
        chains = rng.standard_normal((2, 2000))
        chains[1] += 20.0
        # between-chain variance dominates: ESS collapses
        assert ess(chains) < 200

    def test_duplicated_chain_cannot_inflate(self):
        # duplicating a chain adds draws but no information: the per-draw
        # efficiency (ESS / total draws) must not increase
        rng = make_rng(81)
        x = ar1(4000, 0.5, rng)
        single = ess(x[None, :])
        doubled = ess(np.vstack([x, x]))
        assert doubled / 8000 <= single / 4000 + 1e-9

    def test_affine_invariance(self):
        rng = make_rng(82)
        chains = rng.standard_normal((3, 1500))
        base = ess(chains)
        assert ess(3.7 * chains - 12.0) == pytest.approx(base, rel=1e-9)

    def test_constant_chain_errors(self):
        with pytest.raises(ValueError):
            ess(np.ones((2, 100)))

    def test_too_short_errors(self):
        with pytest.raises(ValueError):
            ess(np.array([[1.0, 2.0, 3.0]]))


class TestSplitRhat:
    def test_well_mixed_near_one(self):
        chains = make_rng(75).standard_normal((4, 2000))
        assert 0.99 <= split_rhat(chains) <= 1.02

    def test_affine_invariance(self):
        rng = make_rng(83)
        chains = rng.standard_normal((3, 800)) + np.array([[0.0], [0.1], [0.2]])
        base = split_rhat(chains)
        assert split_rhat(-2.5 * chains + 4.0) == pytest.approx(base, rel=1e-9)

    def test_separated_chains_flagged(self):
        rng = make_rng(76)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000) + 10.0
        assert split_rhat(np.vstack([a, b])) > 3.0

    def test_single_drifting_chain_flagged(self):
        rng = make_rng(77)
        x = np.linspace(0.0, 5.0, 2000) + 0.1 * rng.standard_normal(2000)
        assert split_rhat(x[None, :]) > 1.5

    def test_constant_chain_errors(self):
        with pytest.raises(ValueError):
            split_rhat(np.zeros((2, 100)))


def make_chain(draws, warmup_time=1.0, sampling_time=2.0, divergences=0):
    return ChainDraws(draws=draws, param_names=["a", "b"],
                      warmup_time=warmup_time, sampling_time=sampling_time,
                      divergences=divergences)


class TestEfficiencyReport:
    def test_identities(self):
        rng = make_rng(78)
        chains = [make_chain(rng.standard_normal((500, 2))) for _ in range(3)]
        rep = efficiency_report(chains)
        assert rep["comp_time_s"] == pytest.approx(9.0)   # 3 x (1 + 2)
        assert rep["time_per_min_ess"] == pytest.approx(
            rep["comp_time_s"] / rep["min_ess"], rel=1e-12)
        columns = [np.stack([c.draws[:, j] for c in chains]) for j in (0, 1)]
        assert rep["min_ess"] == min(ess(col) for col in columns)
        assert rep["max_rhat"] == max(split_rhat(col) for col in columns)
        assert rep["divergences"] == 0

    def test_divergences_summed(self):
        rng = make_rng(79)
        chains = [make_chain(rng.standard_normal((500, 2)), divergences=d)
                  for d in (1, 0, 4)]
        assert efficiency_report(chains)["divergences"] == 5
