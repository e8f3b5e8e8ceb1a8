"""Log densities, primitive samplers and the shared RNG contract.

Everything downstream composes densities in log space only; products of
small probabilities (e.g. 5 confusion-matrix entries per item) underflow
in linear space at benchmark scale.
"""

import numpy as np
from scipy import special

LOG_2PI = np.log(2.0 * np.pi)


def make_rng(seed, stream=0):
    """Deterministic generator for (seed, stream).

    Distinct streams are independent by construction (SeedSequence keying),
    so per-chain generators never share state.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((int(seed), int(stream))))
    )


def lse_rows(m):
    """Log-sum-exp over axis 0 of a (K, n) component-major array: one
    value per data row (column of `m`), the fast path of the hot loops.
    For K <= 7 numpy adds the K entries in order, as a row-wise sum of
    the (n, K) transpose would.  `m` is left unchanged."""
    mm = np.maximum.reduce(m, axis=0)
    if not np.logical_and.reduce(np.isfinite(mm)):
        return special.logsumexp(m, axis=0)
    t = m - mm
    np.exp(t, out=t)
    out = np.add.reduce(t, axis=0)
    np.log(out, out=out)
    out += mm
    return out


def check_simplex(p, atol=1e-12):
    p = np.asarray(p, dtype=float)
    if np.any(p < -atol) or np.any(p > 1 + atol):
        raise ValueError(f"simplex entries outside [0,1]: {p}")
    if abs(p.sum() - 1.0) > 1e-8:
        raise ValueError(f"simplex does not sum to 1: sum={p.sum()}")
    return p


def sample_categorical_rows(rng, probs):
    """Vectorised categorical draw from a (K, n) component-major `probs`:
    one index per column, n draws in all."""
    cum = np.add.accumulate(probs, axis=0)
    cum /= cum[-1]
    u = rng.random(cum.shape[1])
    return np.add.reduce(u > cum, axis=0)


def sample_dirichlet(rng, alpha):
    """Draw one simplex per row of `alpha` (..., K) from Dirichlet(row):
    one standard-gamma draw over the stack, each row scaled by 1 / sum.
    While every row has an entry above 0.1 and K <= 7 this is, bit for
    bit and generator state included, rng.dirichlet on each row in turn
    (numpy's beta construction for max(alpha) < 0.1 and its pairwise sum
    for K >= 8 differ).  Every alpha here is a prior (plus counts in a
    conjugate update), >= 0.8 at the benchmark's K <= 5: 1, 3, or beta,
    whose off-diagonal is 3.2 / (K - 1)."""
    p = rng.standard_gamma(alpha)
    p *= 1.0 / np.add.reduce(p, axis=-1, keepdims=True)
    np.maximum(p, 1e-300, out=p)   # no exact zeros from tiny gamma draws
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    return p
