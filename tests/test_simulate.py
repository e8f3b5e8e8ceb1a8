"""Scenario catalog regression lock, generator determinism and moments."""

import numpy as np
import pytest

from margmcmc import simulate as sim

# regression lock: the benchmark's 13 scenario definitions
EXPECTED_MIXTURES = {
    "two-comp-1": ((-5.0, 5.0), (0.5, 0.5)),
    "two-comp-2": ((-5.0, 5.0), (0.7, 0.3)),
    "two-comp-3": ((-2.5, 2.5), (0.5, 0.5)),
    "two-comp-4": ((-2.5, 2.5), (0.7, 0.3)),
    "three-comp-1": ((-10.5, 0.0, 10.5), (1 / 3, 1 / 3, 1 / 3)),
    "three-comp-2": ((-10.5, 0.0, 10.5), (0.5, 0.3, 0.2)),
    "three-comp-3": ((-7.0, 0.0, 7.0), (1 / 3, 1 / 3, 1 / 3)),
    "three-comp-4": ((-7.0, 0.0, 7.0), (0.5, 0.3, 0.2)),
    "three-comp-5": ((-6.0, 0.0, 15.0), (0.5, 0.3, 0.2)),
    "three-comp-6": ((-6.0, 0.0, 15.0), (1 / 3, 1 / 3, 1 / 3)),
    "three-comp-7": ((-4.0, 0.0, 10.0), (1 / 3, 1 / 3, 1 / 3)),
    "three-comp-8": ((-4.0, 0.0, 10.0), (0.5, 0.3, 0.2)),
}


class TestCatalog:
    def test_thirteen_scenarios(self):
        catalog = sim.scenario_catalog()
        assert len(catalog) == 13
        assert sum(s.kind == "mixture" for s in catalog) == 12
        assert sum(s.kind == "dawid-skene" for s in catalog) == 1

    def test_mixture_values_locked(self):
        for sid, (mu, pi) in EXPECTED_MIXTURES.items():
            s = sim.get_scenario(sid)
            assert s.mu == mu
            assert np.allclose(s.pi, pi, atol=1e-12)
            assert s.sigma == 2.0 and s.n == 200

    def test_ds_values_locked(self):
        s = sim.get_scenario("ds")
        assert (s.n_items, s.n_raters, s.n_categories) == (100, 5, 5)
        assert s.diag_accuracy == 0.7
        assert s.off_diag == pytest.approx(0.075)
        theta = s.theta()
        assert np.allclose(theta.sum(axis=2), 1.0)

    def test_derived_quantities(self):
        mu2 = sim.get_scenario("two-comp-2").mu
        assert abs(mu2[-1] - mu2[0]) == 10.0
        mu5 = sim.get_scenario("three-comp-5").mu
        gaps5 = np.diff(mu5)
        assert abs(mu5[-1] - mu5[0]) == 21.0
        assert not np.allclose(gaps5, gaps5[0])
        gaps3 = np.diff(sim.get_scenario("three-comp-3").mu)
        assert np.allclose(gaps3, gaps3[0])

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            sim.get_scenario("nope")


class TestGenerators:
    def test_mixture_deterministic(self):
        s = sim.get_scenario("two-comp-1")
        a, _ = sim.gen_dataset(s, 1, 42)
        b, _ = sim.gen_dataset(s, 1, 42)
        assert np.array_equal(a.x, b.x)

    def test_replicates_distinct(self):
        s = sim.get_scenario("two-comp-1")
        xs = [sim.gen_dataset(s, r, 42)[0].x for r in (1, 2, 3)]
        assert not np.array_equal(xs[0], xs[1])
        assert not np.array_equal(xs[1], xs[2])

    def test_scenarios_stream_isolated(self):
        a, _ = sim.gen_dataset(sim.get_scenario("two-comp-1"), 1, 42)
        b, _ = sim.gen_dataset(sim.get_scenario("two-comp-2"), 1, 42)
        assert not np.array_equal(a.x, b.x)

    def test_population_moments(self):
        s = sim.get_scenario("two-comp-1")
        pop_mean = float(np.dot(s.pi, s.mu))
        pop_var = (np.dot(s.pi, np.array(s.mu) ** 2) + s.sigma ** 2
                   - pop_mean ** 2)
        means = [sim.gen_dataset(s, r, seed)[0].x.mean()
                 for seed in range(5) for r in (1, 2)]
        se = np.sqrt(pop_var / s.n)
        assert np.all(np.abs(np.array(means) - pop_mean) < 4 * se)

    def test_degenerate_pi_single_component(self):
        s = sim.MixtureScenario("tmp", (-3.0, 9.0), (1.0, 0.0))
        data, truth = sim.gen_dataset(s, 1, 0)
        assert np.all(truth["z"] == 0)
        assert data.x.mean() == pytest.approx(-3.0, abs=3 * 2.0 / np.sqrt(200))

    def test_ds_agreement_rate(self):
        s = sim.DSScenario("tmp-ds", n_items=10_000)
        data, truth = sim.gen_dataset(s, 1, 0)
        agree = (data.ratings == truth["z"][:, None]).mean()
        se = np.sqrt(0.7 * 0.3 / data.ratings.size)
        assert agree == pytest.approx(0.7, abs=4 * se)

    def test_ds_uniform_categories(self):
        s = sim.DSScenario("tmp-ds2", n_items=10_000)
        _, truth = sim.gen_dataset(s, 1, 0)
        freq = np.bincount(truth["z"], minlength=5) / len(truth["z"])
        se = np.sqrt(0.2 * 0.8 / len(truth["z"]))
        assert np.all(np.abs(freq - 0.2) < 4 * se)

    def test_ds_perfect_raters(self):
        s = sim.DSScenario("tmp-ds3", diag_accuracy=1.0)
        data, truth = sim.gen_dataset(s, 1, 0)
        assert np.array_equal(data.ratings, np.tile(truth["z"][:, None], 5))

    def test_ds_deterministic(self):
        s = sim.get_scenario("ds")
        a, _ = sim.gen_dataset(s, 2, 7)
        b, _ = sim.gen_dataset(s, 2, 7)
        assert np.array_equal(a.ratings, b.ratings)

