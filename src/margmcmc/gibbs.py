"""Within-Gibbs MCMC for the full and marginalised models.

One chain runs one Gibbs arm of the model handle's `methods`, read from
the arm's name at construction as the flags `marginal` and (mixture
only) `conjugate`:

  gibbs-full            -- labels + conjugate Dirichlet blocks, slice
                           moves for the other continuous coordinates
  gibbs-full-restricted -- labels, every continuous coordinate by 1-d
                           slice moves (simplexes via stick coordinates)
  gibbs-marginal        -- no labels; every continuous coordinate of the
                           marginalised posterior by 1-d slice moves

The restricted and marginal arms use the identical sampler set on the
continuous coordinates by construction, so differences between them
isolate the effect of marginalisation itself.

A simplex is sliced one stick coordinate at a time, and each density
evaluation recomputes only what that stick changes, bit for bit as
transforms.constrain_simplex would, and hands the simplex target log p
from one np.log over one buffer [rem | p] (`_slice_simplex_coords`).

Update order is fixed: labels z, then pi, then theta or (mu, sigma).

Every slice move starts from an interval of width 1 and doubles it at
most 10 times (SLICE_WIDTH, SLICE_MAX_DOUBLINGS).

The label conditionals and the marginal slice targets' cached matrices
are component-major, (K, n) or (K, I), as in the model modules; a slice
move on one component rewrites one contiguous row.

The handle supplies the labels' full conditional as (K, n) log weights
up to a constant per column (`z_log_weights`), drawn from unnormalised;
`_STATE_CLASS` maps its type to the chain state that `harness.run_chain`
sweeps.  No sampler branches on a model's name.
"""

import math

import numpy as np

from . import dawid_skene as dsm
from . import mixture as mx
from . import transforms as tr
from .stats import (LOG_2PI, lse_rows, sample_categorical_rows,
                    sample_dirichlet)
from scipy import special

SLICE_WIDTH = 1.0
SLICE_MAX_DOUBLINGS = 10


class SliceError(RuntimeError):
    pass


def slice_sample_1d(logdensity, current, rng, lower=-np.inf, upper=np.inf):
    """One slice-sampling move (Neal's doubling procedure with shrinkage).

    `lower`/`upper` restrict the support; the density is treated as zero
    outside, which keeps the doubling bookkeeping exact.  The point, the
    bounds and the slice level are Python floats, so the interval
    arithmetic skips numpy's scalar overhead; the result is a float.
    """
    def lf(x):
        if x <= lower or x >= upper:
            return -np.inf
        return logdensity(x)

    random = rng.random
    current, lower, upper = float(current), float(lower), float(upper)
    logf0 = lf(current)
    if not math.isfinite(logf0):
        raise SliceError(f"log density not finite at current point {current}")
    logy = float(logf0 + np.log(random()))

    # a comparison with an infinite bound is False, so no finiteness guard
    left = current - SLICE_WIDTH * random()
    right = left + SLICE_WIDTH
    if left < lower:
        right += lower - left
        left = lower
    if right > upper:
        left -= right - upper
        right = upper
    fl, fr = lf(left), lf(right)
    k = SLICE_MAX_DOUBLINGS
    while k > 0 and (fl > logy or fr > logy):
        if random() < 0.5:
            left -= right - left
            fl = lf(left)
        else:
            right += right - left
            fr = lf(right)
        k -= 1
    # doublings may be exhausted before both ends leave the slice; Neal's
    # limited-doubling variant proceeds and stays exact via the accept test
    lb, rb = left, right
    for _ in range(1000):
        x1 = lb + random() * (rb - lb)
        if lf(x1) > logy and _doubling_accept(lf, current, x1, logy,
                                              left, right):
            return x1
        if x1 < current:
            lb = x1
        else:
            rb = x1
    raise SliceError("slice shrinkage failed to find an acceptable point")


def _doubling_accept(lf, x0, x1, logy, left, right):
    """Neal's acceptance test for intervals produced by doubling."""
    d = False
    while right - left > 1.1 * SLICE_WIDTH:
        mid = 0.5 * (left + right)
        if (x0 < mid <= x1) or (x1 < mid <= x0):
            d = True
        if x1 < mid:
            right = mid
        else:
            left = mid
        if d and lf(left) <= logy and lf(right) <= logy:
            return False
    return True


def update_pi_conjugate(counts, alpha, rng):
    """Dirichlet-categorical conjugate draw: Dirichlet(alpha + counts),
    `alpha` a float array or scalar and `counts` a float array."""
    return sample_dirichlet(rng, alpha + counts)


def update_theta_conjugate(data, latent, beta, rng):
    """Confusion rows from their Dirichlet(beta[k] + counts) full
    conditionals."""
    j, k = data.n_raters, data.n_categories
    # counts[j, k, c] = #{i : z_i = k, y_ij = c}
    idx = data.category_index[:, latent, np.arange(data.n_items)]
    counts = np.bincount(idx.ravel(), minlength=j * k * k).reshape(j, k, k)
    return sample_dirichlet(rng, beta + counts)


def update_z_block(model, data, params, rng):
    """Draw every label from the model's full conditional given the
    continuous state, straight from its unnormalised log weights."""
    return sample_categorical_rows(rng, model.z_log_weights(data, params))


def _slice_simplex_coords(u_row, target_of_log_row, rng):
    """Slice each stick coordinate of one simplex in turn; returns the
    updated sticks and their simplex.  The target takes log p, a view
    valid only during the call.

    Moving stick c changes only z_c, so an evaluation recomputes z_c, then
    rem (the cumprod of 1 and each 1 - z), p and logJ; rem and p share one
    buffer [rem (K) | p (K)], so one np.log gives both logs.  This is
    constrain_simplex's loop step for step: numpy ufuncs for exp and the
    logs (math's differ in the last bit; numpy's elementwise log over a
    contiguous buffer is each entry's log), rem a left-to-right product
    and logJ a left-to-right sum on Python floats.  So log p and logJ are
    bit-identical to tr.constrain_simplex's for every K.
    """
    u_row = np.array(u_row, dtype=float)
    km1 = len(u_row)
    off = tr._stick_offsets(km1)
    zs = np.append(tr.expit(u_row - off), 1.0)   # z, then 1 for p[K-1]
    fac = np.append(1.0, 1.0 - zs[:km1])
    (rem, p), (log_rem, log_p) = buf, lbuf = np.ones((2, 2, km1 + 1))
    zterm = (np.log(zs[:km1]) + np.log1p(-zs[:km1])).tolist()

    def place(c, v):
        zs[c] = z = 1.0 / (1.0 + np.exp(-(v - off[c])))    # tr.expit
        fac[c + 1] = 1.0 - z
        np.multiply.accumulate(fac, out=rem)             # np.cumprod
        np.multiply(rem, zs, out=p)
        zterm[c] = float(np.log(z) + np.log1p(-z))

    for c in range(km1):
        def logf(v, c=c):
            place(c, v)
            np.log(buf, out=lbuf)
            lj = 0.0
            for t, lr in zip(zterm, log_rem.tolist()):   # the K - 1 sticks
                lj += t + lr
            return target_of_log_row(log_p) + lj
        u_row[c] = slice_sample_1d(logf, u_row[c], rng)
        place(c, u_row[c])
    return u_row, p.copy()


# ------------------------------------------------------------- mixture

def _mu_log_prior(m, truncates):
    """N(0, 10^2) log kernel of a component mean, less the truncation
    renormaliser of the next component's prior if there is one."""
    a = m / mx.PRIOR_MU_SD
    lp = -0.5 * a * a
    if truncates:
        lp -= float(special.log_ndtr(-a))
    return lp


class _MixtureGibbs:
    def __init__(self, model, data, rng, init, method):
        self.model, self.data, self.rng = model, data, rng
        self.marginal = method == "gibbs-marginal"
        self.conjugate = method == "gibbs-full"
        self.k = model.k
        self.params = init
        if not self.conjugate:   # only slice moves read the sticks
            self.u_pi = tr.unconstrain_simplex(self.params.pi)
        self.x2 = data.x**2

    def sweep(self):
        if self.marginal:
            self._sweep_marginal()
            return
        rng, k = self.rng, self.k
        x = self.data.x
        mu, pi = self.params.mu, self.params.pi
        sigma = np.float64(self.params.sigma)   # inf instead of OverflowError
        # (1) labels
        z = update_z_block(self.model, self.data, self.params, rng)
        counts = np.bincount(z, minlength=k).astype(float)
        sum_x = np.bincount(z, weights=x, minlength=k)
        sum_x2 = np.bincount(z, weights=self.x2, minlength=k)
        # (2) pi
        if self.conjugate:
            pi = update_pi_conjugate(counts, 1.0, rng)   # Dirichlet(1) prior
        else:
            def pi_target(log_p):
                return float(np.dot(counts, log_p))  # Dirichlet(1) prior flat
            self.u_pi, pi = _slice_simplex_coords(self.u_pi, pi_target, rng)
        # (3) mu then sigma, by slice
        mu = mu.copy()
        two_var = 2.0 * sigma**2   # np.float64: 0 or inf divides, not raises
        per_comp = zip(counts.tolist(), sum_x.tolist(), sum_x2.tolist())
        for kk, (n_k, s1, s2) in enumerate(per_comp):
            lo = mu[kk - 1] if kk > 0 else -np.inf
            hi = mu[kk + 1] if kk < k - 1 else np.inf

            def mu_target(m, n_k=n_k, s1=s1, s2=s2, truncates=kk < k - 1):
                quad = -(s2 - 2.0 * m * s1 + n_k * m * m) / two_var
                return quad + _mu_log_prior(m, truncates)
            mu[kk] = slice_sample_1d(mu_target, mu[kk], rng,
                                     lower=lo, upper=hi)
        d = x - mu[z]
        np.multiply(d, d, out=d)
        sse = float(np.add.reduce(d))
        n = len(x)

        def log_sigma_target(ls):
            s = np.exp(ls)
            if not (s > 0 and math.isfinite(s)):
                return -np.inf
            lx = np.log(s)   # Lognormal(0, 1) log density at s
            return (-n * ls - sse / (2.0 * s * s)
                    + (-lx - 0.5 * LOG_2PI - 0.5 * lx * lx) + ls)
        ls = slice_sample_1d(log_sigma_target, np.log(sigma), rng)
        self.params = mx.MixtureParams(mu=mu, sigma=float(np.exp(ls)), pi=pi)

    def _sweep_marginal(self):
        rng, k = self.rng, self.k
        x = self.data.x
        mu = self.params.mu.copy()
        sigma = self.params.sigma
        pi = self.params.pi

        def norm_rows(mu_vec, s):
            z = (x - mu_vec[:, None]) / s
            return -np.log(s) - 0.5 * LOG_2PI - 0.5 * z * z

        ll = norm_rows(mu, sigma)  # cached (K, n) log f(x_i | mu_k, sigma^2)

        # pi via stick coordinates against the marginal joint
        def pi_target(log_p):
            return float(np.add.reduce(lse_rows(ll + log_p[:, None])))
        self.u_pi, pi = _slice_simplex_coords(self.u_pi, pi_target, rng)

        log_pi = np.log(pi)
        m_mat = ll + log_pi[:, None]
        for kk in range(k):
            lo = mu[kk - 1] if kk > 0 else -np.inf
            hi = mu[kk + 1] if kk < k - 1 else np.inf
            const = log_pi[kk] - np.log(sigma) - 0.5 * LOG_2PI  # - z^2 / 2

            def set_row(m, const=const, row=m_mat[kk]):
                z = (x - m) / sigma
                z *= 0.5 * z
                np.subtract(const, z, out=row)

            def mu_target(m, kk=kk, set_row=set_row):
                set_row(m)
                return (float(np.add.reduce(lse_rows(m_mat)))
                        + _mu_log_prior(m, kk < k - 1))
            mu[kk] = slice_sample_1d(mu_target, mu[kk], rng,
                                     lower=lo, upper=hi)
            set_row(mu[kk])  # leave the cached row at the accepted value

        def log_sigma_target(ls):
            s = np.exp(ls)
            if not np.isfinite(s) or s <= 0:
                return -np.inf
            lik = float(lse_rows(norm_rows(mu, s) + log_pi[:, None]).sum())
            return lik - 0.5 * ls * ls  # Lognormal(0,1) kernel + exp Jacobian
        ls = slice_sample_1d(log_sigma_target, np.log(sigma), rng)
        self.params = mx.MixtureParams(mu=mu, sigma=float(np.exp(ls)), pi=pi)


# --------------------------------------------------------- Dawid-Skene

class _DawidSkeneGibbs:
    # no restricted arm: the full arm is the conjugate one
    def __init__(self, model, data, rng, init, method):
        self.model, self.data, self.rng = model, data, rng
        self.j, self.k = model.j, model.k
        self.params = init
        self.marginal = method == "gibbs-marginal"
        if self.marginal:
            self.u_pi = tr.unconstrain_simplex(self.params.pi)
            self.u_theta = tr.unconstrain_simplex(self.params.theta)
            self._rebuild_cache()

    def _rebuild_cache(self):
        self.c = dsm._item_category_loglik(self.data,
                                           np.log(self.params.theta))

    def sweep(self):
        if self.marginal:
            self._sweep_marginal()
        else:
            self._sweep_full()

    def _sweep_full(self):
        # (1) labels, then (2) pi and (3) theta from their Dirichlet
        # full conditionals
        z = update_z_block(self.model, self.data, self.params, self.rng)
        z_counts = np.bincount(z, minlength=self.k).astype(float)
        pi = update_pi_conjugate(z_counts, self.model.alpha, self.rng)
        theta = update_theta_conjugate(self.data, z, self.model.beta,
                                       self.rng)
        self.params = dsm.DSParams(pi=pi, theta=theta)

    def _sweep_marginal(self):
        rng = self.rng
        data, j, k = self.data, self.j, self.k
        alpha_m1 = self.model.alpha_m1

        # pi stick coordinates (Dirichlet kernel; the normaliser is constant)
        def pi_target(log_p):
            return (float(np.add.reduce(lse_rows(log_p[:, None] + self.c)))
                    + float(np.dot(alpha_m1, log_p)))
        self.u_pi, pi = _slice_simplex_coords(self.u_pi, pi_target, rng)
        log_pi = np.log(pi)

        # theta rows, one stick coordinate at a time; per-item log-sum-exp
        # over the K-1 untouched categories is cached per row
        theta = self.params.theta.copy()
        base = log_pi[:, None] + self.c       # (K, I)
        col = np.empty(data.n_items)          # the row target's column
        for jj in range(j):
            y_j = data.ratings[:, jj]
            for kk in range(k):
                col_wo_row = self.c[kk] - np.log(theta[jj, kk])[y_j]
                saved = base[kk].copy()
                base[kk] = -np.inf
                others = lse_rows(base)          # (I,) reduction over k' != kk
                base[kk] = saved
                col_rest = log_pi[kk] + col_wo_row
                beta_m1 = self.model.beta_m1[kk]

                def row_target(log_row):
                    np.add(col_rest, log_row[y_j], out=col)
                    np.logaddexp(others, col, out=col)
                    return (float(np.add.reduce(col))
                            + float(np.dot(beta_m1, log_row)))
                self.u_theta[jj, kk], theta[jj, kk] = _slice_simplex_coords(
                    self.u_theta[jj, kk], row_target, rng)
                self.c[kk] = col_wo_row + np.log(theta[jj, kk])[y_j]
                base[kk] = log_pi[kk] + self.c[kk]
        self.params = dsm.DSParams(pi=pi, theta=theta)
        self._rebuild_cache()


# The Gibbs chain state class of each model handle, for `harness.run_chain`.
# It is not kept on the handle, because the models do not import the samplers.
_STATE_CLASS = {mx.MixtureModel: _MixtureGibbs,
                dsm.DawidSkeneModel: _DawidSkeneGibbs}

