"""Deterministic data generators for the 13 benchmark scenarios.

Four two-component mixtures, eight three-component mixtures, and one
categorical rating scenario.  Every dataset is a pure function of
(scenario id, replicate index, master seed), so adding scenarios or
replicates never perturbs existing data.

Datasets serialise to a flat text file: a header line of key=value pairs
followed by one observation per line (a single real for mixtures, J
space-separated integers for ratings).  Category labels are written
1-based in files and kept 0-based in memory.
"""

from dataclasses import dataclass

import numpy as np

from .dawid_skene import DSData
from .mixture import MixtureData
from .stats import check_simplex

FORMAT_VERSION = 1


@dataclass(frozen=True)
class MixtureScenario:
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
    def kind(self):
        return "mixture"

    @property
    def n_components(self):
        return len(self.mu)


@dataclass(frozen=True)
class DSScenario:
    id: str
    n_items: int = 100
    n_raters: int = 5
    n_categories: int = 5
    diag_accuracy: float = 0.7

    def __post_init__(self):
        if not (0.0 < self.diag_accuracy <= 1.0):
            raise ValueError("diag accuracy must be in (0, 1]")

    @property
    def kind(self):
        return "dawid-skene"

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


def _replicate_rng(scenario_id, replicate, master_seed):
    """Stream-isolated generator keyed by (seed, scenario, replicate)."""
    if replicate < 1:
        raise ValueError("replicate index is 1-based")
    sid = int.from_bytes(scenario_id.encode(), "big") % (1 << 63)
    ss = np.random.SeedSequence((int(master_seed), sid, int(replicate)))
    return np.random.Generator(np.random.PCG64(ss))


def gen_mixture(scenario, replicate, master_seed):
    """One replicate dataset: (MixtureData, ground-truth dict)."""
    rng = _replicate_rng(scenario.id, replicate, master_seed)
    pi = np.asarray(scenario.pi)
    mu = np.asarray(scenario.mu)
    z = rng.choice(len(pi), size=scenario.n, p=pi)
    x = rng.normal(mu[z], scenario.sigma)
    truth = {"mu": mu, "pi": pi, "sigma": scenario.sigma, "z": z}
    return MixtureData(x), truth


def gen_ds(scenario, replicate, master_seed):
    """One replicate rating matrix: (DSData, ground-truth dict)."""
    rng = _replicate_rng(scenario.id, replicate, master_seed)
    k, i_n, j_n = scenario.n_categories, scenario.n_items, scenario.n_raters
    pi = np.asarray(scenario.pi)
    theta = scenario.theta()
    z = rng.choice(k, size=i_n, p=pi)
    ratings = np.empty((i_n, j_n), dtype=int)
    for j in range(j_n):
        # inverse-CDF draw per item against rater j's confusion row
        u = rng.random(i_n)
        cum = np.cumsum(theta[j], axis=1)
        ratings[:, j] = (u[:, None] > cum[z]).sum(axis=1)
    truth = {"pi": pi, "theta": theta, "z": z}
    return DSData(ratings, k), truth


def gen_dataset(scenario, replicate, master_seed):
    if scenario.kind == "mixture":
        return gen_mixture(scenario, replicate, master_seed)
    return gen_ds(scenario, replicate, master_seed)


# ------------------------------------------------------------ serialisation

def _header(scenario, replicate, master_seed):
    pairs = [("format", FORMAT_VERSION), ("scenario", scenario.id),
             ("kind", scenario.kind), ("replicate", replicate),
             ("seed", master_seed)]
    if scenario.kind == "mixture":
        pairs += [("k", scenario.n_components), ("n", scenario.n),
                  ("sigma", scenario.sigma)]
    else:
        pairs += [("items", scenario.n_items), ("raters", scenario.n_raters),
                  ("categories", scenario.n_categories)]
    return " ".join(f"{k}={v}" for k, v in pairs)


def write_dataset(path, scenario, replicate, master_seed):
    """Generate a replicate and write it plus a .truth companion file."""
    data, truth = gen_dataset(scenario, replicate, master_seed)
    lines = [_header(scenario, replicate, master_seed)]
    if scenario.kind == "mixture":
        lines += [repr(float(v)) for v in data.x]
    else:
        lines += [" ".join(str(v + 1) for v in row) for row in data.ratings]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    tpath = str(path) + ".truth"
    tlines = [_header(scenario, replicate, master_seed)]
    if scenario.kind == "mixture":
        tlines.append("mu " + " ".join(repr(float(v)) for v in truth["mu"]))
        tlines.append("pi " + " ".join(repr(float(v)) for v in truth["pi"]))
        tlines.append("sigma " + repr(float(truth["sigma"])))
    else:
        tlines.append("pi " + " ".join(repr(float(v)) for v in truth["pi"]))
        for j in range(scenario.n_raters):
            for kk in range(scenario.n_categories):
                tlines.append(f"theta {j+1} {kk+1} "
                              + " ".join(repr(float(v))
                                         for v in truth["theta"][j, kk]))
    tlines.append("z " + " ".join(str(v + 1) for v in truth["z"]))
    with open(tpath, "w") as fh:
        fh.write("\n".join(tlines) + "\n")
    return path


def parse_header(line):
    out = {}
    for token in line.split():
        key, _, val = token.partition("=")
        out[key] = val
    return out


def read_dataset(path):
    """Round-trip loader; returns (header dict, MixtureData or DSData)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = parse_header(lines[0])
    if header.get("kind") == "mixture":
        x = np.array([float(v) for v in lines[1:]])
        return header, MixtureData(x)
    k = int(header["categories"])
    ratings = np.array([[int(v) - 1 for v in ln.split()] for ln in lines[1:]])
    return header, DSData(ratings, k)
