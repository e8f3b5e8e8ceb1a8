"""Log densities, primitive samplers and `make_rng`, the one generator
constructor: every chain's and dataset's stream is keyed there.

Everything downstream composes densities in log space only; products of
small probabilities (e.g. 5 confusion-matrix entries per item) underflow
in linear space at benchmark scale.

The program needs numpy and Python's `math` only: the normal log CDF
(`log_ndtr`) is built on `math.erfc`, and `lse_rows` handles columns
holding inf or nan itself.
"""

import functools
import math
from math import erfc, log, log1p

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))   # numpy's bits, a Python float
# ones_dot(n)(v) sums an n-vector at a third of a ufunc reduction's cost
# (in BLAS's order); cached, as an np.ones per call would cost the saving
ones_dot = functools.cache(lambda n: np.ones(n).dot)

_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Below this x, erfc(-x / sqrt 2) falls under 9.3e-308, near the subnormal
# range, and log Phi(x) comes from its asymptotic series instead.  Its
# terms (-1)^k (2k - 1)!! / x^(2k), k = 1..8, summed by Horner's rule,
# end below 1.4e-19 there, so eight of them reach double precision.
_LOG_NDTR_SERIES_BELOW = -37.5
_LOG_NDTR_SERIES = (2027025.0, -135135.0, 10395.0, -945.0, 105.0, -15.0,
                    3.0, -1.0)


def log_ndtr(x):
    """log Phi(x), the standard normal log CDF, of a float; never raises.
    Above -1 it is log1p(-erfc(x / sqrt 2) / 2), scipy.special.log_ndtr's
    formula there (and math.log1p is about twice as fast as math.log);
    down to _LOG_NDTR_SERIES_BELOW it is log(erfc(-x / sqrt 2) / 2);
    below that (and at nan) the asymptotic series
    -x^2/2 - log(-x sqrt(2 pi)) + log(1 - 1/x^2 + 3/x^4 - ...)."""
    if x > -1.0:
        return log1p(-0.5 * erfc(x * _SQRT1_2))
    if x > _LOG_NDTR_SERIES_BELOW:
        return log(0.5 * erfc(x * -_SQRT1_2))
    return -0.5 * x * x - log(-x) - _LOG_SQRT_2PI + log1p(_ndtr_series(x))


def _ndtr_series(x):
    """-1/x^2 + 3/x^4 - ..., eight terms: Phi(x) = phi(x) / -x times one
    plus this, for x at or below _LOG_NDTR_SERIES_BELOW."""
    r = 1.0 / (x * x)
    s = 0.0
    for c in _LOG_NDTR_SERIES:
        s = (s + c) * r
    return s


def inv_mills_ratio(a, log_tail):
    """phi(a) / Phi(-a) of a float, given log_tail = log_ndtr(-a).  Where
    log_ndtr(-a) takes its series (a >= 37.5, and nan) it is a / (1 + s),
    s that series, in which phi(a) and Phi(-a) have cancelled; there
    exp(log phi(a) - log_tail) would subtract two numbers near a^2 / 2
    and keep no digits once a passes about 1e8.  Elsewhere it is that
    exp, as an np.float64."""
    if -a > _LOG_NDTR_SERIES_BELOW:
        return np.exp(-0.5 * LOG_2PI - 0.5 * a * a - log_tail)
    return a / (1.0 + _ndtr_series(-a))


def make_rng(seed, *key):
    """A PCG64 keyed by (seed, *key), or (seed, 0) with no key, through a
    SeedSequence.  An int part keys as itself, a str as its bytes mod
    2^63, which keeps only its last 8 bytes (a fault, ROADMAP item 4):
    the default matrix's 765 chain keys, "scenario|method|replicate|chain",
    give 45 streams (keys ending `...inal|r|c` share one).  The 13
    scenario ids, which key the datasets, end differently."""
    parts = [int.from_bytes(part.encode(), "big") % (1 << 63)
             if isinstance(part, str) else int(part) for part in key or (0,)]
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((int(seed), *parts))))


def lse_rows(m):
    """Log-sum-exp over axis 0 of a (K, n) component-major array: one
    value per data row (column of `m`), the fast path of the hot loops.
    For K <= 7 numpy adds the K entries in order, as a row-wise sum of
    the (n, K) transpose would.  A column whose maximum is not finite
    (the maxima's sum, one cached bound dot, screens for it) is shifted
    by 0, as scipy's logsumexp does, and reads -inf, inf or nan as it
    does; every other column keeps its bits whatever its neighbours
    hold, also where that sum overflows.  `m` is unchanged."""
    mm = np.maximum.reduce(m, axis=0)
    if not math.isfinite(ones_dot(len(mm))(mm)):
        mm[~np.isfinite(mm)] = 0.0
    t = m - mm
    np.exp(t, out=t)
    out = np.add.reduce(t, axis=0)
    np.log(out, out=out)
    out += mm
    return out


def check_simplex(p):
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
        raise ValueError(f"simplex entries outside [0,1]: {p}")
    if abs(p.sum() - 1.0) > 1e-8:
        raise ValueError(f"simplex does not sum to 1: sum={p.sum()}")
    return p


def sample_categorical_rows(rng, log_w):
    """One index per column of (K, n) log weights, each column known up
    to its own constant, from one rng.random(n): the running sums of
    exp(w - column max) against a uniform scaled by their total.  A label
    can differ from the normalised draw (tests/oracles.py) only where its
    uniform is within a few ulps of a category boundary; a column of
    -inf draws 0 in both."""
    w = log_w - np.maximum.reduce(log_w, axis=0)
    np.exp(w, out=w)
    np.add.accumulate(w, axis=0, out=w)
    return np.add.reduce(rng.random(w.shape[1]) * w[-1] > w, axis=0)


def sample_dirichlet(rng, alpha):
    """Draw one simplex per row of `alpha` (..., K) from Dirichlet(row):
    one standard-gamma draw over the stack, each row scaled by 1 / sum.
    While every row has an entry above 0.1 and K <= 7 this is, bit for
    bit and generator state included, rng.dirichlet on each row in turn
    clipped at 1e-300 and renormalised, which moves the last bit of many
    draws (numpy's beta construction for max(alpha) < 0.1 and its
    pairwise sum for K >= 8 differ).  Every alpha here is a prior (plus
    counts in a conjugate update), >= 0.8 at the benchmark's K <= 5: 1,
    3, or beta, whose off-diagonal is 3.2 / (K - 1).

    A 1-d `alpha` takes a second path on Python floats (numpy's array
    checks cost 8-10 us of a 3-entry draw; three scalar draws 2.3 us).
    It sums left to right as numpy does for K < 8, so at K <= 7 it draws
    the stack path's bits and generator state (tests/test_stats.py)."""
    if alpha.ndim == 1:
        g = list(map(rng.standard_gamma, alpha.tolist()))
        inv = 1.0 / sum(g)
        g = [max(v * inv, 1e-300) for v in g]   # no exact zeros
        return np.array(g) / sum(g)
    p = rng.standard_gamma(alpha)
    p *= 1.0 / np.add.reduce(p, axis=-1, keepdims=True)
    np.maximum(p, 1e-300, out=p)   # no exact zeros from tiny gamma draws
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    return p
