"""Every mixture arm against the exact posterior: grid quadrature of a
tiny two-component dataset (tests/quadrature.py), with no sampler in
the reference."""

from pathlib import Path

import numpy as np
import pytest
from scipy import special

from margmcmc import harness as hz
from margmcmc import mixture as mx
from margmcmc.diagnostics import ess
from margmcmc.stats import make_rng
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
    iterations = ARMS[method]
    chains = [hz.run_chain(model, data, method, iterations, iterations // 2,
                           make_rng(1, c)) for c in range(CHAINS)]
    names = model.param_names()
    assert sorted(names) == sorted(exact)
    limit = z_limit(len(names) * len(ARMS))
    for j, name in enumerate(names):
        draws = np.stack([c.draws[:, j] for c in chains])
        mcse = np.sqrt(draws.var() / ess(draws))
        z = abs(draws.mean() - exact[name]) / mcse
        assert z <= limit, (f"{name}: mean {draws.mean():.4f} against exact "
                            f"{exact[name]:.4f}, {z:.2f} MCSE > {limit:.2f}")


def test_reference_shares_no_code_with_the_program():
    assert "margmcmc" not in Path(quadrature.__file__).read_text()
