"""Every arm against the exact posterior: grid quadrature of a tiny
two-component dataset and of a tiny two-rater, two-category rating
dataset (tests/quadrature.py), with no sampler in the reference; and the
committed full-size references of three of criterion 6's datasets."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from margmcmc import dawid_skene as dsm
from margmcmc import harness as hz
from margmcmc import mixture as mx
from margmcmc.diagnostics import ess
from margmcmc.simulate import gen_dataset, get_scenario
from margmcmc.stats import make_rng
import make_quadrature_reference as reference
import quadrature

# perfbench's agreement gate: a Bonferroni two-sided normal quantile for
# a family-wise false-alarm rate of 1e-4, times sqrt(2) because ESS from
# three chains can be optimistic about twofold
AGREE_ALPHA, MCSE_ALLOWANCE = 1e-4, np.sqrt(2.0)
ARMS = {"gibbs-full": 3000, "gibbs-full-restricted": 2000,
        "gibbs-marginal": 2000, "nuts-marginal": 1000}   # iterations
CHAINS = 3


def z_limit(n_comparisons):
    return MCSE_ALLOWANCE * float(-special.ndtri(AGREE_ALPHA
                                                 / (2.0 * n_comparisons)))


def check_arm(model, data, method, iterations, exact, n_comparisons):
    """Run CHAINS chains of `method` at seed 1 and hold each parameter's
    mean in `exact` to its exact value within z_limit(n_comparisons)
    MCSEs."""
    chains = [hz.run_chain(model, data, method, iterations, iterations // 2,
                           make_rng(1, c)) for c in range(CHAINS)]
    names = model.param_names()
    limit = z_limit(n_comparisons)
    for name, value in exact.items():
        draws = np.stack([c.draws[:, names.index(name)] for c in chains])
        mcse = np.sqrt(draws.var() / ess(draws))
        z = abs(draws.mean() - value) / mcse
        assert z <= limit, (f"{name}: mean {draws.mean():.4f} against exact "
                            f"{value:.4f}, {z:.2f} MCSE > {limit:.2f}")


@pytest.fixture(scope="module")
def tiny():
    """Ten points about -3 and ten about 3, unit sd, and their exact
    posterior means."""
    rng = np.random.default_rng(2026)
    x = np.concatenate([rng.normal(-3.0, 1.0, 10), rng.normal(3.0, 1.0, 10)])
    return mx.MixtureData(x), quadrature.posterior_means(x)


@pytest.mark.parametrize("method", ARMS)
def test_arm_agrees_with_quadrature(tiny, method):
    data, exact = tiny
    model = mx.MixtureModel(2)
    assert sorted(model.param_names()) == sorted(exact)
    check_arm(model, data, method, ARMS[method], exact,
              len(exact) * len(ARMS))


RATING_ARMS = {"nuts-marginal": 1000, "gibbs-full": 2000,
               "gibbs-marginal": 1000}   # iterations


@pytest.fixture(scope="module")
def tiny_ratings():
    """Sixty items, two categories at even odds, two raters each right
    with probability 0.95; their exact posterior means and the exact
    mass of the label-switched region."""
    rng = np.random.default_rng(2026)
    z = rng.integers(0, 2, 60)
    y = np.where(rng.random((60, 2)) < 0.95, z[:, None], 1 - z[:, None])
    counts = np.bincount(2 * y[:, 0] + y[:, 1], minlength=4).reshape(2, 2)
    return dsm.DSData(y, 2), *quadrature.rating_posterior(counts)


def test_label_switched_mass_is_negligible(tiny_ratings):
    # the grid's means leave out the mode with the labels swapped; its
    # mass (2.5e-5 here) moves no mean by a noticeable share of an MCSE
    assert tiny_ratings[2] < 1e-4


@pytest.mark.parametrize("method", RATING_ARMS)
def test_rating_arm_agrees_with_quadrature(tiny_ratings, method):
    data, exact, _ = tiny_ratings
    check_arm(dsm.DawidSkeneModel(2, 2), data, method, RATING_ARMS[method],
              exact, len(exact) * len(RATING_ARMS))


def test_reference_shares_no_code_with_the_program():
    # both log joints are written in the reference, which imports only
    # numpy, scipy and the standard library
    source = Path(quadrature.__file__).read_text()
    assert "margmcmc" not in source
    tree = ast.parse(source)
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported == {"functools", "numpy", "scipy"}
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    assert {"mix2_log_joint", "rating2_log_joint"} <= defined


def test_full_size_reference_is_current():
    """tests/quadrature_reference.json (made by
    tests/make_quadrature_reference.py) holds every cell's fields, each
    cell met both bars, and its data are the ones gen_dataset makes."""
    ref = json.loads(reference.OUT.read_text())
    bars = {"agree_sds": quadrature.AGREE_SDS,
            "face_mass": quadrature.FACE_MASS,
            "small_pi": quadrature.SMALL_PI}
    assert ref["bars"] == bars
    assert list(ref["cells"]) == list(reference.CELLS)
    for scenario_id, cell in ref["cells"].items():
        assert set(cell) == {"data", "posterior", "small_pi_mass", "grid",
                             "checks"}
        data = cell["data"]
        assert (data["scenario"], data["replicate"], data["master_seed"]) \
            == (scenario_id, reference.REPLICATE, reference.MASTER_SEED)
        x = gen_dataset(get_scenario(scenario_id), data["replicate"],
                        data["master_seed"])[0].x
        assert data["n"] == len(x)
        assert data["x_sha256"] == reference.x_sha256(x)
        assert list(cell["posterior"]) == list(reference.PARAMS)
        for moments in cell["posterior"].values():
            assert set(moments) == {"mean", "sd"} and moments["sd"] > 0
        mu = [cell["posterior"][f"mu[{k}]"]["mean"] for k in (1, 2)]
        assert mu[0] < mu[1]
        assert 0.0 <= cell["small_pi_mass"] <= 1.0
        assert len(cell["grid"]["sizes"]) == 2
        assert cell["checks"]["gap_sds"] <= bars["agree_sds"]
        assert cell["checks"]["face_mass"] <= bars["face_mass"]
