"""Within-Gibbs MCMC for the full and marginalised models.

One chain runs one Gibbs arm of the model handle's `methods`, read as two
flags fixed at construction, `marginal` and `conjugate`:

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
transforms.constrain_simplex would (`_slice_simplex_coords`).

Update order is fixed: labels z, then pi, then theta or (mu, sigma).

Every slice move starts from an interval of width 1 and doubles it at
most 10 times (SLICE_WIDTH, SLICE_MAX_DOUBLINGS).

The label conditionals and the marginal slice targets' cached matrices
are component-major, (K, n) or (K, I), as in the model modules; a slice
move on one component rewrites one contiguous row.

The model handle supplies the labels' full conditional
(`model.z_full_conditional`); `_STATE_CLASS` maps the handle's type to
its sweep state.  No sampler branches on a model's name.
"""

import time

import numpy as np

from . import dawid_skene as dsm
from . import mixture as mx
from . import transforms as tr
from .draws import ChainDraws, check_lengths
from .stats import (LOG_2PI, log_lognormal_pdf, lse_rows,
                    sample_categorical_rows, sample_dirichlet)
from scipy import special

SLICE_WIDTH = 1.0
SLICE_MAX_DOUBLINGS = 10


class SliceError(RuntimeError):
    pass


def slice_sample_1d(logdensity, current, rng, lower=-np.inf, upper=np.inf):
    """One slice-sampling move (Neal's doubling procedure with shrinkage).

    `lower`/`upper` restrict the support; the density is treated as zero
    outside, which keeps the doubling bookkeeping exact.
    """
    def lf(x):
        if x <= lower or x >= upper:
            return -np.inf
        return logdensity(x)

    logf0 = lf(current)
    if not np.isfinite(logf0):
        raise SliceError(f"log density not finite at current point {current}")
    logy = logf0 + np.log(rng.random())

    left = current - SLICE_WIDTH * rng.random()
    right = left + SLICE_WIDTH
    if np.isfinite(lower) and left < lower:
        right += lower - left
        left = lower
    if np.isfinite(upper) and right > upper:
        left -= right - upper
        right = upper
    fl, fr = lf(left), lf(right)
    k = SLICE_MAX_DOUBLINGS
    while k > 0 and (fl > logy or fr > logy):
        if rng.random() < 0.5:
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
        x1 = lb + rng.random() * (rb - lb)
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
    """Dirichlet-categorical conjugate draw: Dirichlet(alpha + counts)."""
    counts = np.asarray(counts, dtype=float)
    return sample_dirichlet(rng, np.asarray(alpha, dtype=float) + counts)


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
    continuous state."""
    return sample_categorical_rows(rng, model.z_full_conditional(data, params))


def _slice_simplex_coords(u_row, target_of_row, rng):
    """Slice each stick coordinate of one simplex in turn; returns the
    updated sticks and their simplex.

    Moving stick c changes only z_c and the remaining stick after it, so
    an evaluation recomputes z_c, the rem suffix (a cumprod from the kept
    rem_c), p and logJ.  The arithmetic is tr.constrain_simplex's scalar
    loop step for step -- numpy ufuncs for exp and the logs (math.exp/log
    differ in the last bit), the remaining stick as a left-to-right
    product, logJ as a left-to-right sum of the per-stick terms.  Here the
    product is np.multiply.accumulate, always left to right, and the sum
    is np.add.reduce, left to right only while K - 1 < 8 (pairwise
    beyond); so p is bit-identical to constrain_simplex of the moved
    sticks for every K, and logJ for K <= 8.
    """
    u_row = np.array(u_row, dtype=float)
    km1 = len(u_row)
    off = tr._stick_offsets(km1)
    zs = np.append(tr.expit(u_row - off), 1.0)   # z, then 1 for p[K-1]
    fac = np.append(1.0, 1.0 - zs[:km1])         # rem_c, then 1 - z from c on
    rem = np.multiply.accumulate(fac)            # rem[K-1] = p[K-1]
    zterm = np.log(zs[:km1]) + np.log1p(-zs[:km1])

    def place(c, v):
        """Set stick c to v; returns logJ."""
        zs[c] = z = 1.0 / (1.0 + np.exp(-(v - off[c])))    # tr.expit
        fac[c + 1] = 1.0 - z
        np.multiply.accumulate(fac[c:], out=rem[c:])     # np.cumprod
        zterm[c] = np.log(z) + np.log1p(-z)
        return float(np.add.reduce(zterm + np.log(rem[:km1])))

    for c in range(km1):
        fac[c] = rem[c]

        def logf(v, c=c):
            lj = place(c, v)
            return target_of_row(rem * zs) + lj
        u_row[c] = slice_sample_1d(logf, u_row[c], rng)
        place(c, u_row[c])
    return u_row, rem * zs


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
    def __init__(self, model, data, rng, init, marginal, conjugate):
        self.model, self.data, self.rng = model, data, rng
        self.marginal, self.conjugate = marginal, conjugate
        self.k = model.k
        self.params = init
        if not np.isfinite(mx.log_prior(init)):
            raise ValueError("initial parameters outside the prior support")
        if not conjugate:   # only slice moves read the sticks
            self.u_pi = tr.unconstrain_simplex(self.params.pi)

    def sweep(self):
        rng, k = self.rng, self.k
        mu, pi = self.params.mu, self.params.pi
        sigma = np.float64(self.params.sigma)   # inf instead of OverflowError
        if self.marginal:
            self._sweep_marginal()
            return
        # (1) labels
        self.z = update_z_block(self.model, self.data, self.params, rng)
        z = self.z
        counts = np.bincount(z, minlength=k).astype(float)
        sum_x = np.bincount(z, weights=self.data.x, minlength=k)
        sum_x2 = np.bincount(z, weights=self.data.x**2, minlength=k)
        # (2) pi
        if self.conjugate:
            pi = update_pi_conjugate(counts, np.ones(k), rng)
        else:
            def pi_target(p):
                return float(np.dot(counts, np.log(p)))  # Dirichlet(1) prior flat
            self.u_pi, pi = _slice_simplex_coords(self.u_pi, pi_target, rng)
        # (3) mu then sigma, by slice
        mu = mu.copy()
        two_var = 2.0 * sigma**2
        for kk in range(k):
            lo = mu[kk - 1] if kk > 0 else -np.inf
            hi = mu[kk + 1] if kk < k - 1 else np.inf

            def mu_target(m, kk=kk):
                quad = -(sum_x2[kk] - 2.0 * m * sum_x[kk]
                         + counts[kk] * m * m) / two_var
                return quad + _mu_log_prior(m, kk < k - 1)
            mu[kk] = slice_sample_1d(mu_target, mu[kk], rng,
                                     lower=lo, upper=hi)
        sse = float(np.sum((self.data.x - mu[z])**2))
        n = len(self.data.x)

        def log_sigma_target(ls):
            s = np.exp(ls)
            if not np.isfinite(s) or s <= 0:
                return -np.inf
            return (-n * ls - sse / (2.0 * s * s)
                    + log_lognormal_pdf(s, 0.0, 1.0) + ls)
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
        def pi_target(p):
            return float(lse_rows(ll + np.log(p)[:, None]).sum())
        self.u_pi, pi = _slice_simplex_coords(self.u_pi, pi_target, rng)

        log_pi = np.log(pi)
        m_mat = ll + log_pi[:, None]
        for kk in range(k):
            lo = mu[kk - 1] if kk > 0 else -np.inf
            hi = mu[kk + 1] if kk < k - 1 else np.inf

            def mu_target(m, kk=kk):
                z = (x - m) / sigma
                m_mat[kk] = (log_pi[kk] - np.log(sigma) - 0.5 * LOG_2PI
                             - 0.5 * z * z)
                return (float(lse_rows(m_mat).sum())
                        + _mu_log_prior(m, kk < k - 1))
            mu[kk] = slice_sample_1d(mu_target, mu[kk], rng,
                                     lower=lo, upper=hi)
            mu_target(mu[kk], kk)  # leave the cached row at the accepted value

        def log_sigma_target(ls):
            s = np.exp(ls)
            if not np.isfinite(s) or s <= 0:
                return -np.inf
            lik = float(lse_rows(norm_rows(mu, s) + log_pi[:, None]).sum())
            return lik - 0.5 * ls * ls  # Lognormal(0,1) kernel + exp Jacobian
        ls = slice_sample_1d(log_sigma_target, np.log(sigma), rng)
        self.params = mx.MixtureParams(mu=mu, sigma=float(np.exp(ls)), pi=pi)

    def state(self):
        return self.model.flatten(self.params)


# --------------------------------------------------------- Dawid-Skene

class _DawidSkeneGibbs:
    def __init__(self, model, data, rng, init, marginal, conjugate):
        # `conjugate` is `not marginal`: the handle has no restricted arm
        self.model, self.data, self.rng = model, data, rng
        self.j, self.k = model.j, model.k
        self.params = init
        self.marginal = marginal
        if marginal:
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
        self.z = update_z_block(self.model, self.data, self.params, self.rng)
        z_counts = np.bincount(self.z, minlength=self.k).astype(float)
        pi = update_pi_conjugate(z_counts, self.model.alpha, self.rng)
        theta = update_theta_conjugate(self.data, self.z, self.model.beta,
                                       self.rng)
        self.params = dsm.DSParams(pi=pi, theta=theta)

    def _sweep_marginal(self):
        rng = self.rng
        data, j, k = self.data, self.j, self.k
        alpha_m1 = self.model.alpha_m1

        # pi stick coordinates (Dirichlet kernel; the normaliser is constant)
        def pi_target(p):
            return (float(lse_rows(np.log(p)[:, None] + self.c).sum())
                    + float(np.dot(alpha_m1, np.log(p))))
        self.u_pi, pi = _slice_simplex_coords(self.u_pi, pi_target, rng)
        log_pi = np.log(pi)

        # theta rows, one stick coordinate at a time; per-item log-sum-exp
        # over the K-1 untouched categories is cached per row
        theta = self.params.theta.copy()
        base = log_pi[:, None] + self.c       # (K, I)
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

                def row_target(p):
                    log_row = np.log(p)
                    col = col_rest + log_row[y_j]
                    return (float(np.logaddexp(others, col).sum())
                            + float(np.dot(beta_m1, log_row)))
                self.u_theta[jj, kk], theta[jj, kk] = _slice_simplex_coords(
                    self.u_theta[jj, kk], row_target, rng)
                new_col = col_wo_row + np.log(theta[jj, kk])[y_j]
                self.c[kk] = new_col
                base[kk] = log_pi[kk] + new_col
        self.params = dsm.DSParams(pi=pi, theta=theta)
        self._rebuild_cache()

    def state(self):
        return self.model.flatten(self.params)


# The sampler state class of each model handle.  It is looked up here,
# not kept on the handle, because the models do not import the samplers.
_STATE_CLASS = {mx.MixtureModel: _MixtureGibbs,
                dsm.DawidSkeneModel: _DawidSkeneGibbs}


def gibbs_run(model, data, method, iterations, warmup, rng, init=None):
    """Run one chain of the Gibbs arm `method` for `iterations` sweeps,
    the first `warmup` discarded; deterministic given (rng state, init)."""
    if method not in model.methods or method == "nuts-marginal":
        raise ValueError(f"{method!r} is not a Gibbs arm of this model; "
                         f"its arms: {', '.join(model.methods)}")
    check_lengths(iterations, warmup)
    if init is None:
        init = model.init_params(rng)
    state = _STATE_CLASS[type(model)](model, data, rng, init,
                                      marginal=method == "gibbs-marginal",
                                      conjugate=method == "gibbs-full")

    errstate = np.errstate(over="ignore", divide="ignore", invalid="ignore")
    n_keep = iterations - warmup
    draws = np.empty((n_keep, len(model.param_names())))
    with errstate:
        t0 = time.perf_counter()
        for _ in range(warmup):
            state.sweep()
        t1 = time.perf_counter()
        for it in range(n_keep):
            state.sweep()
            draws[it] = state.state()
        t2 = time.perf_counter()
    return ChainDraws(draws=draws, param_names=model.param_names(),
                      warmup_time=t1 - t0, sampling_time=t2 - t1)
