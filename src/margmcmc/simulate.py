"""Deterministic data generators for the 13 benchmark scenarios.

Four two-component mixtures, eight three-component mixtures, and one
categorical rating scenario.  Every dataset is a pure function of
(scenario id, replicate index, master seed), so adding scenarios or
replicates never perturbs existing data: its generator is
`stats.make_rng(master seed, scenario id, replicate)`.

Each scenario type owns its model family: its handle (`model`) and its
generator (`generate`).
"""

from dataclasses import dataclass

import numpy as np

from .dawid_skene import DawidSkeneModel, DSData
from .mixture import MixtureData, MixtureModel
from .stats import check_simplex, make_rng


@dataclass(frozen=True)
class MixtureScenario:
    kind = "mixture"    # not a field: read by perfbench's run.py, gate.py
    id: str
    mu: tuple
    pi: tuple
    sigma: float = 2.0
    n: int = 200

    def __post_init__(self):
        check_simplex(np.asarray(self.pi))
        if self.sigma <= 0 or self.n < 1:
            raise ValueError("need sigma > 0 and n >= 1")

    @property
    def n_components(self):
        return len(self.mu)

    def model(self):
        return MixtureModel(self.n_components)

    def generate(self, rng):
        """One dataset from `rng`: (MixtureData, ground-truth dict)."""
        pi = np.asarray(self.pi)
        mu = np.asarray(self.mu)
        z = rng.choice(len(pi), size=self.n, p=pi)
        x = rng.normal(mu[z], self.sigma)
        truth = {"mu": mu, "pi": pi, "sigma": self.sigma, "z": z}
        return MixtureData(x), truth


@dataclass(frozen=True)
class DSScenario:
    kind = "dawid-skene"    # not a field: read by perfbench's run.py, gate.py
    id: str
    n_items: int = 100
    n_raters: int = 5
    n_categories: int = 5
    diag_accuracy: float = 0.7

    def __post_init__(self):
        if not (0.0 < self.diag_accuracy <= 1.0):
            raise ValueError("diag accuracy must be in (0, 1]")

    @property
    def pi(self):
        return tuple([1.0 / self.n_categories] * self.n_categories)

    @property
    def off_diag(self):
        return (1.0 - self.diag_accuracy) / (self.n_categories - 1)

    def theta(self):
        """(J, K, K) confusion tensor: every rater has the same accuracy."""
        k = self.n_categories
        row = np.full((k, k), self.off_diag)
        np.fill_diagonal(row, self.diag_accuracy)
        return np.broadcast_to(row, (self.n_raters, k, k)).copy()

    def model(self):
        return DawidSkeneModel(self.n_raters, self.n_categories)

    def generate(self, rng):
        """One rating matrix from `rng`: (DSData, ground-truth dict)."""
        k, i_n, j_n = self.n_categories, self.n_items, self.n_raters
        pi = np.asarray(self.pi)
        theta = self.theta()
        z = rng.choice(k, size=i_n, p=pi)
        ratings = np.empty((i_n, j_n), dtype=int)
        for j in range(j_n):
            # inverse-CDF draw per item against rater j's confusion row
            u = rng.random(i_n)
            cum = np.cumsum(theta[j], axis=1)
            ratings[:, j] = (u[:, None] > cum[z]).sum(axis=1)
        truth = {"pi": pi, "theta": theta, "z": z}
        return DSData(ratings, k), truth


_THIRDS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def scenario_catalog():
    """All 13 benchmark scenarios, in their canonical order."""
    two = [
        MixtureScenario("two-comp-1", (-5.0, 5.0), (0.5, 0.5)),
        MixtureScenario("two-comp-2", (-5.0, 5.0), (0.7, 0.3)),
        MixtureScenario("two-comp-3", (-2.5, 2.5), (0.5, 0.5)),
        MixtureScenario("two-comp-4", (-2.5, 2.5), (0.7, 0.3)),
    ]
    three = [
        MixtureScenario("three-comp-1", (-10.5, 0.0, 10.5), _THIRDS),
        MixtureScenario("three-comp-2", (-10.5, 0.0, 10.5), (0.5, 0.3, 0.2)),
        MixtureScenario("three-comp-3", (-7.0, 0.0, 7.0), _THIRDS),
        MixtureScenario("three-comp-4", (-7.0, 0.0, 7.0), (0.5, 0.3, 0.2)),
        MixtureScenario("three-comp-5", (-6.0, 0.0, 15.0), (0.5, 0.3, 0.2)),
        MixtureScenario("three-comp-6", (-6.0, 0.0, 15.0), _THIRDS),
        MixtureScenario("three-comp-7", (-4.0, 0.0, 10.0), _THIRDS),
        MixtureScenario("three-comp-8", (-4.0, 0.0, 10.0), (0.5, 0.3, 0.2)),
    ]
    return two + three + [DSScenario("ds")]


def get_scenario(scenario_id):
    for s in scenario_catalog():
        if s.id == scenario_id:
            return s
    known = ", ".join(s.id for s in scenario_catalog())
    raise KeyError(f"unknown scenario {scenario_id!r}; known: {known}")


def gen_dataset(scenario, replicate, master_seed):
    """One replicate dataset of `scenario`: (data, ground-truth dict)."""
    if replicate < 1:
        raise ValueError("replicate index is 1-based")
    return scenario.generate(make_rng(master_seed, scenario.id, replicate))
