"""Bijections between constrained parameter blocks and unconstrained space.

Three transforms cover every model block:
  * ordered vector   (first coordinate free, log-increments)
  * positive scalar  (exp)
  * simplex          (stick-breaking with the centring offset log(K-k))

Each transform ships a constrain that also returns its log |Jacobian|,
and a reverse-mode helper that pulls a gradient in constrained space (plus
the Jacobian term) back to unconstrained space.  The simplex constrain
also returns its forward pass (the sticks), and its pull-back works from
those.  Only the simplex has an inverse here, taking a stack of simplexes
(..., K): the Gibbs samplers start their stick coordinates from it.
Every simplex transform, and the Gibbs stick moves, take the centring
offsets from the one cached `_stick_offsets`.

The single-vector transforms loop over their K-sized blocks on scalars,
with numpy's exp and logs (the `math` versions differ in the last bit,
and Python-float arithmetic would raise on overflow where np.float64
returns inf).  The `_rows` twins apply the simplex to a stack of rows.
"""

import functools

import numpy as np


def expit(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


# ---------------------------------------------------------------- ordered

def constrain_ordered(raw):
    """raw -> strictly increasing vector; logJ = sum(raw[1:])."""
    mu = [raw[0]]
    log_j = 0.0
    for v in raw[1:]:
        mu.append(mu[-1] + np.exp(v))
        log_j += v             # left to right, as np.sum for K - 1 < 8
    return np.array(mu), float(log_j)


def grad_ordered(raw, g_mu):
    """Pull d/dmu back to d/draw, including the logJ gradient."""
    # mu_j depends on raw_k for all j >= k
    k = len(raw)
    g_raw = [0.0] * k
    tail = 0.0
    for i in range(k - 1, 0, -1):
        tail = tail + g_mu[i]
        g_raw[i] = tail * np.exp(raw[i]) + 1.0  # +1 from logJ
    g_raw[0] = tail + g_mu[0]
    return np.array(g_raw)


# --------------------------------------------------------------- positive

def constrain_positive(raw):
    """raw -> exp(raw) as np.float64, whose arithmetic gives inf where a
    Python float's would raise; logJ = raw."""
    return np.exp(np.float64(raw)), float(raw)


def grad_positive(raw, g_x):
    return g_x * np.exp(raw) + 1.0  # +1 from logJ


# ---------------------------------------------------------------- simplex

@functools.lru_cache(maxsize=None)
def _stick_offsets(km1):
    """The centring offsets log(K-1), ..., log(1) as floats."""
    return tuple(np.log(np.arange(km1, 0, -1)).tolist())


def constrain_simplex(raw):
    """Stick-breaking: raw in R^(K-1) -> (simplex of length K, logJ,
    sticks).  `sticks` = (z, 1 - z, rem) is the forward pass, which
    grad_simplex pulls a gradient back through."""
    z, one_mz, rem, p = [], [], [], []
    log_j = 0.0
    r = 1.0                    # remaining stick before each break
    for v, off in zip(raw, _stick_offsets(len(raw))):
        zi = 1.0 / (1.0 + np.exp(-(v - off)))      # expit
        z.append(zi)
        one_mz.append(1.0 - zi)
        rem.append(r)
        p.append(r * zi)
        log_j += np.log(zi) + np.log1p(-zi) + np.log(r)
        r = r * one_mz[-1]
    p.append(r)
    return np.array(p), float(log_j), (z, one_mz, rem)


def unconstrain_simplex(p):
    """Inverse stick-breaking on a stack of simplexes: (..., K) ->
    (..., K-1), one stick column at a time."""
    p = np.asarray(p, dtype=float)
    raw = np.empty(p.shape[:-1] + (p.shape[-1] - 1,))
    rem = 1.0                  # remaining stick before each break
    for i, off in enumerate(_stick_offsets(raw.shape[-1])):
        z = p[..., i] / rem
        raw[..., i] = np.log(z) - np.log1p(-z) + off
        rem = rem - p[..., i]
    return raw


def constrain_simplex_rows(rows):
    """Stick-breaking applied row-wise: (R, K-1) -> ((R, K), (R,) logJ,
    sticks).  `sticks` = (z, 1 - z, rem) is the forward pass, which
    grad_simplex_rows pulls a gradient back through."""
    rows = np.asarray(rows, dtype=float)
    r, w = rows.shape
    z = expit(rows - _stick_offsets(w))
    one_mz = 1.0 - z
    rem = np.empty((r, w))
    rem[:, 0] = 1.0
    if w > 1:
        rem[:, 1:] = np.cumprod(one_mz[:, :-1], axis=1)
    p = np.empty((r, w + 1))
    p[:, :w] = rem * z
    p[:, w] = rem[:, -1] * one_mz[:, -1]
    log_j = (np.log(z) + np.log1p(-z) + np.log(rem)).sum(axis=1)
    return p, log_j, (z, one_mz, rem)


def grad_simplex_rows(sticks, g_p):
    """Row-wise version of grad_simplex: (R, K) -> (R, K-1), through the
    forward pass `sticks` that constrain_simplex_rows returned."""
    z, one_mz, rem = sticks
    w = z.shape[1]
    inv_z, inv_one_mz, inv_rem = 1.0 / z, 1.0 / one_mz, 1.0 / rem
    g_p_z = g_p[:, :w] * z
    g_z = np.empty_like(z)
    g_rem = g_p[:, w]
    for i in range(w - 1, -1, -1):
        g_z[:, i] = (g_p[:, i] - g_rem) * rem[:, i] \
            + inv_z[:, i] - inv_one_mz[:, i]
        g_rem = g_p_z[:, i] + g_rem * one_mz[:, i]
        if i > 0:
            g_rem += inv_rem[:, i]
    return g_z * z * one_mz


def grad_simplex(sticks, g_p):
    """Pull d/dp back to d/draw, including the stick-breaking logJ
    gradient, through the forward pass `sticks` that constrain_simplex
    returned."""
    z, one_mz, rem = sticks
    km1 = len(z)
    g_raw = [0.0] * km1
    g_rem = g_p[km1]  # adjoint of the last stick's remainder = p[K-1]
    for i in range(km1 - 1, -1, -1):
        g_z = g_p[i] * rem[i] - g_rem * rem[i]
        g_z += 1.0 / z[i] - 1.0 / one_mz[i]  # logJ wrt z_i
        g_rem = g_p[i] * z[i] + g_rem * one_mz[i]
        if i > 0:
            g_rem += 1.0 / rem[i]  # logJ wrt rem[i]
        g_raw[i] = g_z * z[i] * one_mz[i]
    return np.array(g_raw)
