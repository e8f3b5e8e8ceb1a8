"""Within-Gibbs MCMC for the full and marginalised models.

One chain runs one Gibbs arm of the model handle's `methods`, read from
the arm's name at construction as the flags `marginal` and (mixture
only) `conjugate`:

  gibbs-full            -- labels + conjugate Dirichlet blocks, all in
                           one stacked draw; slice moves for the rest
  gibbs-full-restricted -- labels, every continuous coordinate by 1-d
                           slice moves (simplexes via stick coordinates)
  gibbs-marginal        -- no labels; every continuous coordinate of the
                           marginalised posterior by 1-d slice moves

The restricted and marginal arms use the identical sampler set on the
continuous coordinates by construction, so differences between them
isolate the effect of marginalisation itself.

A simplex is sliced one stick coordinate at a time through one target,
sum_i log sum_k p_k exp(rows[k, i]) plus a Dirichlet kernel, in
`_slice_simplex_coords`: both models' pi (the restricted arm's with the
kernel alone) and each confusion row, each accepted point placed bit for
bit as transforms.constrain_simplex would place it.  The rating chain
keeps one stick stack, `u_rows`, row for row with `DSParams.rows`, and
builds every simplex's stick state once per sweep (`_stick_states`).

Update order is fixed: labels z, then pi, then theta or (mu, sigma).
A mixture mean's slice target carries the truncation renormaliser of the
next mean's prior with its own kernel, `stats.log_kernel_over_tail`; both
arms' log sigma targets carry its prior as -log(sigma)^2 / 2, the
Lognormal(0, 1) kernel and the exp Jacobian up to a constant.

Every slice move starts from an interval of width 1 and doubles it at
most 10 times (SLICE_WIDTH, SLICE_MAX_DOUBLINGS).  Its uniforms come
from the chain's `_Uniforms`, rng.random(_BLOCK) blocks handed out in
turn.  A sweep's slice moves are its last draws, and it ends by closing
the stream, which rewinds the generator over the values not taken, so
every draw is as if made one at a time.  The rewind needs a PCG64, as
stats.make_rng builds, with no pending 32-bit value; a chain's generator
never holds one.  A SliceError leaves the generator ahead, which is
harmless: the chain is abandoned.

The label conditionals and the marginal slice targets' cached matrices
are component-major, (K, n) or (K, I), as in the model modules; a slice
move on one component rewrites one contiguous row.

Each marginal slice target caches what its coordinate leaves fixed, as
the full arms' targets read counts made once per sweep: a stick what the
other sticks fix (`_slice_simplex_coords`); a mixture mean the other
rows' log-sum-exp (`_mu_target`); sigma (x - mu_k)^2 / 2
(`_log_sigma_target`).  A stick or sigma total that is not finite, or a
simplex entry at or below _P_FLOOR, is evaluated in log space over all
rows (sigma's through `mixture._component_loglik`), the uncached form,
so saturated sticks and extreme sigma read exactly as in it.  A mean's
rows hold only finite values and -inf (the data, sigma and slice points
are finite), so its total is -inf exactly where the log-space one is,
and it needs no fallback.  Elsewhere a density differs in its last bits
only, and the slice sampler only compares it with the slice level: a
draw moves only where a comparison falls within those bits, and none in
the pinned chains does.

The handle supplies the labels' full conditional as (K, n) log weights
up to a constant per column (`z_log_weights`), drawn from unnormalised;
`_STATE_CLASS` maps its type to the chain state that `harness.start_chain`
starts.  Both chain states are a `_GibbsChain`, whose sweep runs the
arm's marginal or full body, then closes the uniform stream.  No sampler
branches on a model's name.
"""

import math
from collections import deque
from functools import partial
from itertools import accumulate, chain
from operator import length_hint, mul

import numpy as np

from . import dawid_skene as dsm
from . import mixture as mx
from . import transforms as tr
from .stats import (LOG_2PI, log_kernel_over_tail, lse_rows, ones_dot,
                    sample_categorical_rows, sample_dirichlet)

SLICE_WIDTH = 1.0
SLICE_MAX_DOUBLINGS = 10
# A cached simplex target sums p_k e_ki directly only while every p_k is
# above this, so each sum stays a normal float to full precision.
_P_FLOOR = 1e-290
_BLOCK = 64   # uniforms per draw of a chain's slice-move stream


class _Uniforms:
    def __init__(self, rng):
        self.rng, self._block = rng, iter(())
        self.random = chain.from_iterable(iter(self._draw, None)).__next__

    def _draw(self):
        self._block = iter(self.rng.random(_BLOCK).tolist())
        return self._block

    def close(self):
        if unused := length_hint(self._block):
            self.rng.bit_generator.advance((1 << 128) - unused)
            deque(self._block, maxlen=0)   # the next take draws a block


class SliceError(RuntimeError):
    pass


def slice_sample_1d(logdensity, current, rng, lower=-np.inf, upper=np.inf):
    """One slice-sampling move (Neal's doubling procedure with shrinkage).

    `lower`/`upper` restrict the support; the density is treated as zero
    outside, which keeps the doubling bookkeeping exact.  The point, the
    bounds and the slice level are Python floats, so the interval
    arithmetic skips numpy's scalar overhead; the result is a float.  With
    both bounds infinite the density is called directly; an interval that
    never doubled skips Neal's accept test, which would not loop.  `rng`
    is anything with a `.random()`, a generator or a chain's _Uniforms.
    """
    random = rng.random
    current, lower, upper = float(current), float(lower), float(upper)
    lf = logdensity
    if lower > -math.inf or upper < math.inf:
        def lf(x):
            if x <= lower or x >= upper:
                return -math.inf
            return logdensity(x)
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
    lb, rb, doubled = left, right, k < SLICE_MAX_DOUBLINGS
    for _ in range(1000):
        x1 = lb + random() * (rb - lb)
        if lf(x1) > logy and (not doubled or _doubling_accept(
                lf, current, x1, logy, left, right)):
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


def update_theta_conjugate(data, latent, prior_rows, rng):
    """The rows of pi and theta, stacked as in DSParams, in one draw from
    their Dirichlet full conditionals: one bincount adds #{z_i = c} to
    `prior_rows`' row 0 and #{z_i = k, y_ij = c} to row 1 + j K + k."""
    k = data.n_categories
    idx = data.category_index[:, latent, data.item_index] + k
    counts = np.bincount(np.concatenate((latent, idx.ravel())),
                         minlength=prior_rows.size)
    return sample_dirichlet(rng, prior_rows + counts.reshape(-1, k))


def update_z_block(model, data, params, rng):
    """Draw every label from the model's full conditional given the
    continuous state, straight from its unnormalised log weights."""
    return sample_categorical_rows(rng, model.z_log_weights(data, params))


def _lse_other_rows(m, kk):
    """lse_rows(m) with row kk read as -inf: the log-sum-exp over the
    other rows, bit for bit.  `m` is left unchanged."""
    saved = m[kk].copy()
    m[kk] = -np.inf
    out = lse_rows(m)
    m[kk] = saved
    return out


def _stick_states(u):
    """Per row of an (R, K-1) stick stack, _slice_simplex_coords' stick
    state: lists z + [1], log z + log(1 - z), 1 - z, per stick the running
    products of the later 1 - z, and the (K-1, K) tails coefficients."""
    r, km1 = u.shape
    zs = np.ones((r, km1 + 1))
    z = zs[:, :km1] = tr.expit(u - tr._stick_offsets(km1))
    w = 1.0 - z
    coef, qs = np.zeros((r, km1, km1 + 1)), []
    for c in range(km1):
        q = np.ones((r, km1 - c))
        np.multiply.accumulate(w[:, c + 1:], axis=1, out=q[:, 1:])
        np.multiply(q, zs[:, c + 1:], out=coef[:, c, c + 1:])
        qs.append(q.tolist())
    return zip(zs.tolist(), (np.log(z) + np.log1p(-z)).tolist(), w.tolist(),
               zip(*qs), coef)


def _slice_simplex_coords(u_row, rng, log_rows=None, prior_m1=None,
                          sticks=None):
    """Slice each stick coordinate of one simplex in turn; returns the
    updated sticks and their simplex.  The sticks' density is the simplex
    target sum_i log sum_k p_k exp(log_rows[k, i]) + prior_m1 . log p
    (each term left out when its argument is None) plus logJ.

    While stick c moves, with z = expit(u_c - off_c), w = 1 - z and the
    other sticks fixed, p_k is fixed for k < c, p_c = rem_c z, and
    p_k = rem_c w t_k for k > c.  So with shift the column maximum of
    log_rows and e = exp(log_rows - shift), the likelihood is sum(shift)
    + sum_i log col_i, col = rem_c (z e_c + w T_c) + H_c, and logJ and
    the prior are a constant plus multiples of log z and log w.  The
    tails T_c = sum_k>c t_k e_k of all sticks are one matrix product at
    the starting sticks; H_c = sum_k<c p_k e_k grows as each is placed.
    That stick state is `sticks`, a row of _stick_states (one pass per
    sweep over a stack of simplexes), or this row's own set-up: same bits.
    An evaluation is one math.exp, two math logs and three numpy calls:
    col as a dot, its log, and their sum as a dot with ones (a ufunc
    reduction costs about as much as two such calls).
    Each col_i is at least min(p), so this runs only while every p_k is
    above _P_FLOOR.  Below it, or when the total is not finite, the
    evaluation is exact: `place` sets z, rem and p as
    transforms.constrain_simplex would, bit for bit (numpy's exp and
    logs, rem a left-to-right product), and the likelihood is
    lse_rows(log p + log_rows), logJ a left-to-right sum.  The accepted
    point is placed the same way, so the sticks and p are bit-identical
    to constrain_simplex's; an evaluation is within the last bits of the
    exact one.
    """
    u_row = np.array(u_row, dtype=float)
    km1 = len(u_row)
    off = tr._stick_offsets(km1)
    if sticks is None:   # one row: cheaper on lists than _stick_states
        z0 = tr.expit(u_row - off)
        zs = z0.tolist() + [1.0]                  # z, then 1 for p[K-1]
        w0 = [1.0 - z for z in zs[:km1]]   # qs[c][k-c-1] = prod(w0[c+1:k])
        sticks = (zs, (np.log(z0) + np.log1p(-z0)).tolist(), w0, [
            list(accumulate(w0[c + 1:], mul, initial=1.0))
            for c in range(km1)], None)
    zs, zterm, w0, qs, tails_coef = sticks
    rem, p = [1.0] * (km1 + 1), [1.0] * (km1 + 1)
    pm = [0.0] * (km1 + 1) if prior_m1 is None else \
        np.asarray(prior_m1, dtype=float).tolist()
    if log_rows is not None:
        shift = np.maximum.reduce(log_rows, axis=0)
        shift_sum, n = float(np.add.reduce(shift)), len(shift)
        rows = np.zeros((km1 + 1, 3, n))    # rows[c] = (e_c, T_c, H_c)
        e, tails, heads = rows.transpose(1, 0, 2)
        e[:] = np.exp(log_rows - shift)
        if tails_coef is None:
            tails_coef = [[0.0] * (c + 1) + list(map(mul, qc, zs[c + 1:]))
                          for c, qc in enumerate(qs)]
        np.matmul(tails_coef, e, out=tails[:km1])
        coef, col = np.ones(3), np.empty(n)
        # bound methods skip np.dot's dispatch, a memoryview numpy's setitem
        dot, sum_of, items, np_log = coef.dot, ones_dot(n), coef.data, np.log

    def place(c, v):
        z = 1.0 / (1.0 + np.exp(-(v - off[c])))    # tr.expit
        zs[c], zterm[c] = float(z), float(np.log(z) + np.log1p(-z))
        w0[c] = 1.0 - zs[c]
        rem[c:] = accumulate(w0[c:], mul, initial=rem[c])   # as np.cumprod
        p[:] = map(mul, rem, zs)

    def exact(c, v):
        place(c, v)
        log_rem, log_p = np.log([rem, p])
        lj = total = 0.0
        for t, lr in zip(zterm, log_rem.tolist()):   # the K - 1 sticks
            lj += t + lr
        if log_rows is not None:
            total = float(np.add.reduce(lse_rows(log_p[:, None] + log_rows)))
        if prior_m1 is not None:
            total += float(np.dot(prior_m1, log_p))
        return total + lj

    exp, log, log1p, isfinite = math.exp, math.log, math.log1p, math.isfinite
    for c in range(km1):
        # p_k for k < c, p_c / z, p_k / w for k > c; rem_j for j <= c,
        # rem_j / w for c < j < K - 1: all fixed while stick c moves
        rc = rem[c]
        rem_over = rem[:c + 1] + [rc * q for q in qs[c]]
        p_over = p[:c] + [rc] + list(map(mul, rem_over[c + 1:], zs[c + 1:]))
        logf = partial(exact, c)   # while a p_k is at or below _P_FLOOR
        if min(p_over) > _P_FLOOR:
            const = (sum(zterm[:c]) + sum(zterm[c + 1:])
                     + sum(map(log, rem_over[:km1]))
                     + sum(map(mul, pm, map(log, p_over))))
            m = None if log_rows is None else rows[c]

            def logf(v, c=c, offc=off[c], rc=rc, low=min(p_over[c + 1:]),
                     const=const if m is None else const + shift_sum,
                     a_z=1.0 + pm[c], a_w=km1 - c + sum(pm[c + 1:]), m=m):
                x = v - offc    # below -700, z is below _P_FLOOR: no overflow
                z = 1.0 / (1.0 + exp(-x)) if x > -700.0 else 0.0
                w = 1.0 - z
                if z * rc > _P_FLOOR and w * low > _P_FLOOR:
                    total = const + a_z * log(z) + a_w * log1p(-z)
                    if m is not None:
                        items[0], items[1] = rc * z, rc * w
                        total += float(sum_of(np_log(dot(m, col), col)))
                    if isfinite(total):
                        return total
                return exact(c, v)
        u_row[c] = slice_sample_1d(logf, u_row[c], rng)
        place(c, u_row[c])
        if log_rows is not None:
            np.add(heads[c], e[c] * p[c], out=heads[c + 1])
    return u_row, np.array(p)


class _GibbsChain:
    """A Gibbs chain's model, data, generator, parameters, uniform stream
    and arm; a sweep runs the arm's body, then closes the stream."""
    divergences, depths = 0, ()   # NUTS's sampler fields: it builds no tree

    def __init__(self, model, data, rng, init, method):
        self.model, self.data, self.rng = model, data, rng
        self.params, self.uniforms = init, _Uniforms(rng)
        self.marginal = method == "gibbs-marginal"

    def sweep(self):
        if self.marginal:
            self._sweep_marginal()
        else:
            self._sweep_full()
        self.uniforms.close()


# ------------------------------------------------------------- mixture

def _mu_log_prior(m, truncates):
    """N(0, 10^2) log kernel of a component mean, less the truncation
    renormaliser of the next component's prior if there is one."""
    a = m / mx.PRIOR_MU_SD
    return log_kernel_over_tail(a) if truncates else -0.5 * a * a


class _MixtureGibbs(_GibbsChain):
    def __init__(self, model, data, rng, init, method):
        super().__init__(model, data, rng, init, method)
        self.conjugate = method == "gibbs-full"
        self.k = model.k
        if not self.conjugate:   # only slice moves read the sticks
            self.u_pi = tr.unconstrain_simplex(self.params.pi)
        self.x2, self.ones = data.x**2, np.ones(len(data.x))

    def _sweep_full(self):
        rng, uniforms, k = self.rng, self.uniforms, self.k
        x, mu, pi = self.data.x, self.params.mu, self.params.pi
        sigma = np.float64(self.params.sigma)   # inf instead of OverflowError
        # (1) labels
        z = update_z_block(self.model, self.data, self.params, rng)
        counts = np.bincount(z, weights=self.ones, minlength=k)
        sum_x = np.bincount(z, weights=x, minlength=k)
        sum_x2 = np.bincount(z, weights=self.x2, minlength=k)
        # (2) pi
        if self.conjugate:
            pi = update_pi_conjugate(counts, 1.0, rng)   # Dirichlet(1) prior
        else:   # the Dirichlet(1) prior is flat
            self.u_pi, pi = _slice_simplex_coords(self.u_pi, uniforms,
                                                  prior_m1=counts)
        # (3) mu then sigma, by slice
        mu = mu.tolist()
        # a float, or an np.float64 0 that divides instead of raising
        two_var = float(2.0 * sigma**2) or np.float64(0.0)
        per_comp = zip(counts.tolist(), sum_x.tolist(), sum_x2.tolist())
        for kk, (n_k, s1, s2) in enumerate(per_comp):
            lo = mu[kk - 1] if kk > 0 else -math.inf
            hi = mu[kk + 1] if kk < k - 1 else math.inf

            def mu_target(m, n_k=n_k, s1=s1, s2=s2, truncates=kk < k - 1):
                quad = -(s2 - 2.0 * m * s1 + n_k * m * m) / two_var
                return quad + _mu_log_prior(m, truncates)
            mu[kk] = slice_sample_1d(mu_target, mu[kk], uniforms,
                                     lower=lo, upper=hi)
        mu = np.array(mu)
        d = x - mu[z]
        np.multiply(d, d, out=d)
        sse = float(np.add.reduce(d))
        n = len(x)

        def log_sigma_target(ls):
            s = float(np.exp(ls))
            if not (2.0 * s * s > 0 and s < math.inf):   # 0 would raise
                return -math.inf
            return -n * ls - sse / (2.0 * s * s) - 0.5 * ls * ls
        ls = slice_sample_1d(log_sigma_target, np.log(sigma), uniforms)
        self.params = mx.MixtureParams(mu=mu, sigma=float(np.exp(ls)), pi=pi)

    def _sweep_marginal(self):
        rng, k = self.uniforms, self.k   # every draw here is a slice move's
        x, sigma = self.data.x, self.params.sigma
        mu = self.params.mu.copy()
        z = (x - mu[:, None]) / sigma
        ll = -np.log(sigma) - 0.5 * LOG_2PI - 0.5 * z * z  # log f(x_i | mu_k)

        # pi via stick coordinates against the marginal joint
        self.u_pi, pi = _slice_simplex_coords(self.u_pi, rng, ll)

        log_pi = np.log(pi)
        m_mat = ll + log_pi[:, None]
        for kk in range(k):
            lo = mu[kk - 1] if kk > 0 else -np.inf
            hi = mu[kk + 1] if kk < k - 1 else np.inf
            target, set_row = _mu_target(x, sigma, log_pi[kk], m_mat, kk)
            mu[kk] = slice_sample_1d(target, mu[kk], rng, lower=lo, upper=hi)
            set_row(mu[kk])  # leave the cached row at the accepted value

        ls = slice_sample_1d(_log_sigma_target(x, mu, pi), np.log(sigma), rng)
        self.params = mx.MixtureParams(mu=mu, sigma=float(np.exp(ls)), pi=pi)


def _mu_target(x, sigma, log_pi_k, m, kk):
    """Mean kk's log density and `set_row`, which writes log pi_k +
    log f(x | mean) into row kk of `m`; the other rows' lse is cached."""
    const = log_pi_k - np.log(sigma) - 0.5 * LOG_2PI   # - z^2 / 2
    others, row, col = _lse_other_rows(m, kk), m[kk], np.empty(m.shape[1])
    sum_of, truncates = ones_dot(len(col)), kk < len(m) - 1

    def set_row(mean):
        z = (x - mean) / sigma
        z *= 0.5 * z
        np.subtract(const, z, out=row)

    def target(mean):
        set_row(mean)
        return (float(sum_of(np.logaddexp(others, row, out=col)))
                + _mu_log_prior(mean, truncates))
    return target, set_row


def _log_sigma_target(x, mu, pi):
    """The marginal mixture's log density of log sigma (Lognormal(0, 1)
    prior, exp Jacobian) at fixed mu and pi.  With h = (x - mu_k)^2 / 2
    and its column minimum h_min cached, the likelihood is
    sum_i log (pi @ exp(-(h - h_min) / s^2))_i - sum(h_min) / s^2
    - n (log s + log(2 pi) / 2), each sum over pi at least min(pi); if
    that is not above _P_FLOOR, or the total is not finite, it is the
    log-space lse_rows form."""
    n = len(x)
    half_sq = x - mu[:, None]
    half_sq *= 0.5 * half_sq
    h_min = np.minimum.reduce(half_sq, axis=0)
    gap = half_sq - h_min
    h_min_sum = float(np.add.reduce(h_min))
    w, col, sum_of = np.empty_like(gap), np.empty(n), ones_dot(n)
    cached = min(pi.tolist()) > _P_FLOOR
    n_const = n * 0.5 * LOG_2PI

    def target(ls):
        s = np.exp(ls)
        if not np.isfinite(s) or s <= 0:
            return -np.inf
        lik = -np.inf
        if cached:
            inv_var = 1.0 / (s * s)   # np.float64: inf, not an error
            np.multiply(gap, -inv_var, out=w)
            np.exp(w, out=w)
            lik = (float(sum_of(np.log(pi.dot(w, out=col), out=col)))
                   - h_min_sum * inv_var - n * ls - n_const)
        if not math.isfinite(lik):
            ll = mx._component_loglik(x, mx.MixtureParams(mu, s, pi))[0]
            lik = float(lse_rows(ll).sum())
        return lik - 0.5 * ls * ls  # Lognormal(0,1) kernel + exp Jacobian
    return target


# --------------------------------------------------------- Dawid-Skene

class _DawidSkeneGibbs(_GibbsChain):
    # no restricted arm: the full arm is the conjugate one
    def __init__(self, model, data, rng, init, method):
        super().__init__(model, data, rng, init, method)
        if self.marginal:   # one stick row per simplex row
            self.u_rows = tr.unconstrain_simplex(self.params.rows)

    def _sweep_full(self):
        # (1) labels, then (2) pi and (3) theta in one conjugate draw
        z = update_z_block(self.model, self.data, self.params, self.rng)
        self.params = dsm.DSParams(update_theta_conjugate(
            self.data, z, self.model.prior_rows, self.rng))

    def _sweep_marginal(self):
        rng = self.uniforms   # every draw here is a slice move's
        data, j, k, u = self.data, self.model.j, self.model.k, self.u_rows
        log_theta = np.log(self.params.theta)   # each row read before it moves
        c = dsm._item_category_loglik(data, log_theta)
        p = self.params.rows.copy()
        sticks = _stick_states(u)   # each row moves only when it is sliced

        # pi stick coordinates (Dirichlet kernel; the normaliser is constant)
        u[0], p[0] = _slice_simplex_coords(u[0], rng, c, self.model.alpha_m1,
                                           next(sticks))
        log_pi = np.log(p[0])

        # theta rows, one stick coordinate at a time.  Per item, with
        # `others` the log-sum-exp over the K-1 untouched categories and
        # `rest` the log joint without this row's entry, the likelihood is
        # logaddexp(others, rest + log p[y]): as sum(p) = 1, the simplex
        # target of rows `others` with entry y set to logaddexp(others, rest)
        base = log_pi[:, None] + c       # (K, I)
        for jj in range(j):
            y_j = data.ratings[:, jj]
            onehot = data.rating_onehot[jj * k:(jj + 1) * k]   # (K, I)
            for kk in range(k):
                col_wo_row = c[kk] - log_theta[jj, kk][y_j]
                others = _lse_other_rows(base, kk)   # (I,), over k' != kk
                log_rows = np.where(onehot, np.logaddexp(
                    others, log_pi[kk] + col_wo_row), others)
                r = 1 + jj * k + kk   # theta[jj, kk]'s row of the stack
                u[r], p[r] = _slice_simplex_coords(
                    u[r], rng, log_rows, self.model.beta_m1[kk], next(sticks))
                c[kk] = col_wo_row + np.log(p[r])[y_j]
                base[kk] = log_pi[kk] + c[kk]
        self.params = dsm.DSParams(p)


# The Gibbs chain state class of each model handle, for `harness.start_chain`.
# It is not kept on the handle, because the models do not import the samplers.
_STATE_CLASS = {mx.MixtureModel: _MixtureGibbs,
                dsm.DawidSkeneModel: _DawidSkeneGibbs}

