"""The stacked simplex primitives against the per-row code they replaced
(`tests/oracles.py`).  `stats.sample_dirichlet` on a stack of rows must
give the same bits as rng.dirichlet on each row in turn, each draw
clipped at 1e-300 and renormalised, and leave the generator in the same
state (plain rng.dirichlet differs in the last bit of many draws);
`transforms.unconstrain_simplex` on a stack must give the same bits as
the scalar inverse on each row.  The shapes are the samplers': (K,) for
a weight vector, (K, K) for one rater's confusion rows, (J, K, K) for
all of them; alpha is the prior plus random counts, so every entry is
at least the smallest prior entry (0.64, off the diagonal of the K = 6
confusion prior)."""

import numpy as np
import pytest

from margmcmc import transforms as tr
from margmcmc.dawid_skene import ds_beta_matrix
from margmcmc.stats import make_rng, sample_dirichlet
from oracles import sample_dirichlet_per_row, unconstrain_simplex_per_row

KS = range(2, 7)
SHAPES = ("K", "KK", "JKK")
TRIALS = 40


def prior(shape, k):
    if shape == "K":
        return np.ones(k)
    beta = ds_beta_matrix(k)
    return beta if shape == "KK" else np.broadcast_to(beta, (3, k, k))


def alphas(shape, k, seed):
    rng = np.random.default_rng(seed)
    base = prior(shape, k)
    for _ in range(TRIALS):
        yield base + rng.integers(0, 40, size=base.shape)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k", KS)
def test_stacked_dirichlet_matches_per_row(k, shape):
    for t, alpha in enumerate(alphas(shape, k, 10 * k)):
        stacked, per_row = make_rng(k, t), make_rng(k, t)
        got = sample_dirichlet(stacked, alpha)
        want = sample_dirichlet_per_row(per_row, alpha)
        assert got.shape == alpha.shape
        assert np.array_equal(got, want)
        assert stacked.bit_generator.state == per_row.bit_generator.state


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k", KS)
def test_stacked_inverse_matches_per_row(k, shape):
    rng = make_rng(k, 1)
    for alpha in alphas(shape, k, 10 * k + 1):
        p = sample_dirichlet(rng, alpha)
        assert np.array_equal(tr.unconstrain_simplex(p),
                              unconstrain_simplex_per_row(p))
    # saturated sticks: entries that round to 0 or 1 give infinite sticks
    rows = rng.uniform(-60.0, 60.0, size=(50, k - 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = tr.constrain_simplex_rows(rows)[0]
        got = tr.unconstrain_simplex(p)
        want = unconstrain_simplex_per_row(p)
    assert not np.isfinite(want).all()
    assert np.array_equal(got, want, equal_nan=True)
