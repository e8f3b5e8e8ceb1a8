"""Code only tests use: log densities for the priors, both models' full and
marginalised log joints (the references the enumeration, latent
conditional and finite-difference tests hold the samplers' kernels to),
the forward and inverse transforms of each model's unconstrained vector,
value-only posteriors built from those joints plus the forward
transforms, the row-major fused gradients the component-major kernels
replaced, the reference for each model's fused gradient, the
one-row-at-a-time Dirichlet draw and stick inverse the stacked simplex
primitives replaced, the rating model's two-call conjugate draw of pi
and theta that one stacked draw replaced, the two-pass log-sum-exp the
in-place `lse_rows` must match bit for bit (both shift a column that
holds inf or nan by 0), the normalised label draw that the draw from
unnormalised log weights must match label for label (with `label_probs`,
the normalised conditional the label tests hold the samplers to), the
marginal Gibbs slice targets in log space that the cached ones must
match, and a chain's draws by parameter name."""

import math

import numpy as np
from scipy import special

from margmcmc import dawid_skene as dsm
from margmcmc import mixture as mx
from margmcmc import transforms as tr
from margmcmc.stats import (LOG_2PI, log_kernel_over_tail, log_ndtr, lse_rows,
                            sample_dirichlet)


def log_normal_pdf(x, mu, sigma):
    """Log density of N(mu, sigma^2), evaluated directly in log space."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or not np.isfinite(mu):
        raise ValueError("non-finite input to log_normal_pdf")
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    z = (x - mu) / sigma
    return -0.5 * LOG_2PI - np.log(sigma) - 0.5 * z * z


def log_lognormal_pdf(x, mu, sigma):
    """Log density of Lognormal(mu, sigma); zero density off (0, inf)."""
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    if x <= 0:
        return -np.inf
    lx = np.log(x)
    z = (lx - mu) / sigma
    return -lx - np.log(sigma) - 0.5 * LOG_2PI - 0.5 * z * z


def log_truncated_normal_pdf(x, mu, sigma, lower):
    """Log density of N(mu, sigma^2) left-truncated at `lower`.

    Returns -inf for x <= lower.  With lower = -inf this reduces to the
    plain normal log density.
    """
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    if np.isneginf(lower):
        return log_normal_pdf(x, mu, sigma)
    if x <= lower:
        return -np.inf
    # normalising constant is the upper-tail mass above `lower`
    log_tail = special.log_ndtr(-(lower - mu) / sigma)
    return log_normal_pdf(x, mu, sigma) - log_tail


def log_dirichlet_pdf(p, alpha):
    """Log Dirichlet density including the log multivariate beta constant."""
    p = np.asarray(p, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if p.shape != alpha.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {alpha.shape}")
    if np.any(alpha <= 0):
        raise ValueError("alpha must be positive")
    if np.any(p <= 0):
        return -np.inf
    log_norm = special.gammaln(alpha.sum()) - special.gammaln(alpha).sum()
    return log_norm + np.sum((alpha - 1.0) * np.log(p))


# ------------------------------------------------------------- log joints
# The non-fused log joints of both models, on constrained parameters.
# They share the kernels' likelihood matrices (`mx._component_loglik`,
# `dsm._item_category_loglik`) and priors (`mx._log_prior`,
# `DawidSkeneModel.log_prior`), so a test against them checks the sum
# over the latents, the fused gradient and the conditionals, not those
# matrices.

def mix_log_prior(params):
    """Mixture log prior density; -inf off the ordered support."""
    return mx._log_prior(params.mu, params.sigma)[0]


def mix_full_log_joint(data, latent, params):
    """Log joint of (x, z, params) for the unmarginalised model."""
    lp = mix_log_prior(params)
    if not np.isfinite(lp):
        return -np.inf
    z = np.asarray(latent, dtype=int)
    if z.shape != data.x.shape:
        raise ValueError("latent labels must match data length")
    ll = mx._component_loglik(data.x, params)[0]
    return lp + float(ll[z, np.arange(len(z))].sum())


def mix_marginal_log_lik(data, params):
    """Marginalised log likelihood: sum_i log sum_k pi_k N(x_i|mu_k, s^2)."""
    ll = mx._component_loglik(data.x, params)[0]
    return float(lse_rows(ll).sum())


def mix_marginal_log_joint(data, params):
    lp = mix_log_prior(params)
    if not np.isfinite(lp):
        return -np.inf
    return lp + mix_marginal_log_lik(data, params)


def ds_log_prior(params):
    model = dsm.DawidSkeneModel(params.theta.shape[0], len(params.pi))
    return model.log_prior(np.log(params.pi), np.log(params.theta))


def ds_full_log_joint(data, latent, params):
    """Log joint of (y, z, params) for the unmarginalised model."""
    z = np.asarray(latent, dtype=int)
    if z.shape != (data.n_items,):
        raise ValueError("latent labels must match item count")
    c = dsm._item_category_loglik(data, np.log(params.theta))
    ll = np.log(params.pi)[z].sum() + c[z, np.arange(len(z))].sum()
    return float(ll + ds_log_prior(params))


def ds_marginal_log_lik(data, params):
    """sum_i log sum_k pi_k prod_j theta[j, k, y_ij], in log space."""
    c = dsm._item_category_loglik(data, np.log(params.theta))
    return float(lse_rows(np.log(params.pi)[:, None] + c).sum())


def ds_marginal_log_joint(data, params):
    return ds_marginal_log_lik(data, params) + ds_log_prior(params)


def mix_constrain(u, k):
    """Unconstrained mixture vector -> (MixtureParams, log |Jacobian|),
    by the transforms calls the fused gradient makes."""
    raw = np.asarray(u, dtype=float).tolist()
    mu, lj_mu = tr.constrain_ordered(raw[:k])
    sigma, lj_sigma = tr.constrain_positive(raw[k])
    pi, lj_pi, _ = tr.constrain_simplex(raw[k + 1:])
    return (mx.MixtureParams(mu=mu, sigma=sigma, pi=pi),
            lj_mu + lj_sigma + lj_pi)


def ds_constrain(model, u):
    """Unconstrained rating-model vector -> (DSParams, log |Jacobian|),
    by the stacked stick pass the fused gradient makes."""
    rows, log_j, _ = tr.constrain_simplex_rows(
        np.asarray(u, dtype=float).reshape(-1, model.k - 1))
    return dsm.DSParams(rows), float(log_j.sum())


def ds_params(pi, theta):
    """DSParams stacking `pi` (K,) over the (J, K, K) confusion rows."""
    theta = np.asarray(theta, dtype=float)
    return dsm.DSParams(np.vstack([pi, theta.reshape(-1, theta.shape[-1])]))


def mix_marginal_log_post_u(data, u, k):
    """Mixture marginal log joint plus logJ at an unconstrained point."""
    params, lj = mix_constrain(u, k)
    return mix_marginal_log_joint(data, params) + lj


def ds_marginal_log_post_u(model, data, u):
    """Rating-model marginal log joint plus logJ at an unconstrained point."""
    params, lj = ds_constrain(model, u)
    return ds_marginal_log_joint(data, params) + lj


def unconstrain_ordered(mu):
    mu = np.asarray(mu, dtype=float)
    if np.any(np.diff(mu) <= 0):
        raise ValueError(f"vector not strictly increasing: {mu}")
    return np.concatenate([[mu[0]], np.log(np.diff(mu))])


def unconstrain_positive(x):
    if x <= 0:
        raise ValueError(f"value not positive: {x}")
    return float(np.log(x))


def pack(mu_raw, log_sigma, pi_raw):
    return np.concatenate([mu_raw, [log_sigma], pi_raw])


def mix_unconstrain(params):
    return pack(unconstrain_ordered(params.mu),
                   unconstrain_positive(params.sigma),
                   tr.unconstrain_simplex(params.pi))


def ds_unconstrain(params):
    return tr.unconstrain_simplex(params.rows).ravel()


# ------------------------------------------------ row-major fused gradients
# Both models' fused (value, gradient) as they stood with item-by-component
# matrices kept (n, K) / (I, K) and the mixture's length-K parameter
# arithmetic done on numpy arrays.  Every helper that the component-major
# kernels rewrote is copied here, so this reference does not move with
# `src/`.  The scalar pieces that are not about memory layout -- the
# normal log CDF, the Dirichlet normalisers (through `model.log_prior`)
# and the shift of a non-finite column -- are the program's, so the
# comparison checks the layout bit for bit.

def lse_rows_two_pass(m):
    """Log-sum-exp over axis 0 of a (K, n) array, written as the max pass
    and the exp-sum pass with a fresh array for each step."""
    mm = m.max(axis=0)
    mm[~np.isfinite(mm)] = 0.0
    return mm + np.log(np.exp(m - mm).sum(axis=0))


def _lse_rows_row_major(m):
    mm = m.max(axis=1)
    mm[~np.isfinite(mm)] = 0.0
    return mm + np.log(np.exp(m - mm[:, None]).sum(axis=1))


def _constrain_ordered_np(raw):
    raw = np.asarray(raw, dtype=float)
    incr = np.concatenate([[raw[0]], np.exp(raw[1:])])
    return np.cumsum(incr), float(np.sum(raw[1:]))


def _grad_ordered_np(raw, g_mu):
    raw = np.asarray(raw, dtype=float)
    g_mu = np.asarray(g_mu, dtype=float)
    tail = np.cumsum(g_mu[::-1])[::-1]
    g_raw = np.empty_like(raw)
    g_raw[0] = tail[0]
    g_raw[1:] = tail[1:] * np.exp(raw[1:]) + 1.0
    return g_raw


def _constrain_simplex_np(raw):
    raw = np.asarray(raw, dtype=float)
    km1 = raw.shape[0]
    if km1 == 0:
        return np.ones(1), 0.0, (raw, raw, raw)
    z = 1.0 / (1.0 + np.exp(-(raw - np.log(np.arange(km1, 0, -1)))))
    one_mz = 1.0 - z
    rem = np.empty(km1)
    rem[0] = 1.0
    if km1 > 1:
        rem[1:] = np.cumprod(one_mz[:-1])
    p = np.empty(km1 + 1)
    p[:km1] = rem * z
    p[km1] = rem[-1] * one_mz[-1]
    log_j = float(np.sum(np.log(z) + np.log1p(-z) + np.log(rem)))
    return p, log_j, (z, one_mz, rem)


def _grad_simplex_np(sticks, g_p):
    z, one_mz, rem = sticks
    g_p = np.asarray(g_p, dtype=float)
    km1 = z.shape[0]
    g_z = np.zeros(km1)
    g_rem = g_p[km1]
    for i in range(km1 - 1, -1, -1):
        g_z[i] = g_p[i] * rem[i] - g_rem * rem[i]
        g_z[i] += 1.0 / z[i] - 1.0 / one_mz[i]
        g_rem = g_p[i] * z[i] + g_rem * one_mz[i]
        if i > 0:
            g_rem += 1.0 / rem[i]
    return g_z * z * one_mz


def _split_np(u, k):
    u = np.asarray(u, dtype=float)
    return u[:k], float(u[k]), u[k + 1:]


def _log_prior_np(params):
    mu, sigma = params.mu, params.sigma
    k = len(mu)
    if sigma <= 0 or (k > 1 and np.any(np.diff(mu) <= 0)):
        return -np.inf
    lp = math.lgamma(k)
    ls = math.log(sigma)
    lp += -ls - 0.5 * LOG_2PI - 0.5 * ls * ls
    z = mu / mx.PRIOR_MU_SD
    c = k * (-0.5 * LOG_2PI - math.log(mx.PRIOR_MU_SD))
    if k > 1 and z[:-1].max() >= 37.5:
        # a truncating mean in log Phi's series: each -a^2/2 - log Phi(-a)
        # in its uncancelled form, as mixture._log_prior takes it there
        last = float(z[-1])
        return lp + (c + sum(map(log_kernel_over_tail, z[:-1].tolist()))
                     - 0.5 * last * last)
    lp += c - 0.5 * float(z @ z)
    if k > 1:
        lp -= sum(map(log_ndtr, -z[:-1]))
    return lp


def mix_grad_row_major(data, u, k):
    """The mixture's fused (value, gradient) with (n, K) matrices."""
    mu_raw, log_sigma, pi_raw = _split_np(u, k)
    mu, lj_mu = _constrain_ordered_np(mu_raw)
    sigma = float(np.exp(log_sigma))
    pi, lj_pi, sticks = _constrain_simplex_np(pi_raw)
    params = mx.MixtureParams(mu=mu, sigma=sigma, pi=pi)
    lj = lj_mu + float(log_sigma) + lj_pi
    lp = _log_prior_np(params)
    if not np.isfinite(lp):
        return -np.inf, np.zeros_like(u)
    x = data.x
    sigma = np.float64(sigma)
    zz = (x[:, None] - mu[None, :]) / params.sigma
    ll = (np.log(pi)[None, :] - np.log(params.sigma) - 0.5 * LOG_2PI
          - 0.5 * zz * zz)
    row_lse = _lse_rows_row_major(ll)
    value = lp + float(row_lse.sum()) + lj
    if not np.isfinite(value):
        return -np.inf, np.zeros_like(u)

    r = np.exp(ll - row_lse[:, None])
    diff = x[:, None] - mu[None, :]
    g_mu = (r * diff).sum(axis=0) / sigma**2 - mu / mx.PRIOR_MU_SD**2
    if k > 1:
        a = mu[:-1] / mx.PRIOR_MU_SD
        log_tail = np.array([log_ndtr(b) for b in -a])
        g_mu[:-1] += np.exp(-0.5 * LOG_2PI - 0.5 * a * a
                            - log_tail) / mx.PRIOR_MU_SD
    g_sigma = float((r * (diff**2 / sigma**3 - 1.0 / sigma)).sum())
    g_sigma += -1.0 / sigma - np.log(sigma) / sigma
    g_pi = r.sum(axis=0) / pi
    grad = pack(_grad_ordered_np(mu_raw, g_mu),
                   g_sigma * np.exp(log_sigma) + 1.0,
                   _grad_simplex_np(sticks, g_pi))
    return value, grad


def ds_grad_row_major(model, data, u):
    """The rating model's fused (value, gradient) with (I, K) matrices and
    the dense (J, K, I) one-hot count."""
    j, k = model.j, model.k
    u = np.asarray(u, dtype=float)
    rows, log_j, sticks = tr.constrain_simplex_rows(
        u.reshape(1 + j * k, k - 1))
    pi = rows[0]
    theta = rows[1:].reshape(j, k, k)
    log_pi = np.log(pi)
    log_theta = np.log(theta)

    jj, yt = np.arange(data.n_raters)[:, None], data.ratings.T
    ll = log_pi[None, :] + log_theta[jj, :, yt].sum(axis=0)
    row_lse = _lse_rows_row_major(ll)
    value = float(row_lse.sum()) + model.log_prior(log_pi, log_theta) \
        + float(log_j.sum())
    if not np.isfinite(value):
        return -np.inf, np.zeros_like(u)

    r = np.exp(ll - row_lse[:, None])
    g_pi = (r.sum(axis=0) + model.alpha - 1.0) / pi
    onehot = np.zeros((data.n_raters, k, data.n_items))
    onehot[jj, yt, np.arange(data.n_items)] = 1.0
    counts = np.einsum("jci,ik->jkc", onehot, r)
    g_theta = (model.beta_m1 + counts) / theta
    g_rows = np.vstack([g_pi[None, :], g_theta.reshape(j * k, k)])
    return value, tr.grad_simplex_rows(sticks, g_rows).ravel()


# --------------------------------------------- per-row simplex primitives
# The Dirichlet draw and the stick inverse as they stood before they took
# a stack of rows: one rng.dirichlet, or one scalar stick loop, per row.

def sample_dirichlet_per_row(rng, alpha):
    """rng.dirichlet on each row of `alpha` (..., K) in C order, each
    draw clipped at 1e-300 and renormalised."""
    alpha = np.asarray(alpha, dtype=float)
    out = np.empty(alpha.shape)
    for idx in np.ndindex(alpha.shape[:-1]):
        p = np.clip(rng.dirichlet(alpha[idx]), 1e-300, None)
        out[idx] = p / p.sum()
    return out


def unconstrain_simplex_per_row(p):
    """Inverse stick-breaking of each row of `p` (..., K) on scalars."""
    p = np.asarray(p, dtype=float)
    k = p.shape[-1]
    raw = np.empty(p.shape[:-1] + (k - 1,))
    for idx in np.ndindex(p.shape[:-1]):
        row = p[idx]
        rem = 1.0
        for i in range(k - 1):
            z = row[i] / rem
            raw[idx + (i,)] = np.log(z) - np.log1p(-z) + np.log(k - 1 - i)
            rem -= row[i]
    return raw


# ------------------------------------------------ two-call conjugate draw
# The rating model's full arm as it drew pi and theta before one stacked
# draw replaced them: pi from its own Dirichlet, then every confusion row
# from theirs, each as the stack path of sample_dirichlet drew it.

def conjugate_pi_theta_two_calls(data, latent, alpha, beta, rng):
    """pi ~ Dirichlet(alpha + label counts), then each confusion row
    theta[j, k] ~ Dirichlet(beta[k] + #{i : z_i = k, y_ij = c})."""
    j, k = data.n_raters, data.n_categories
    z_counts = np.bincount(latent, minlength=k).astype(float)
    pi = sample_dirichlet(rng, (alpha + z_counts)[None])[0]
    idx = data.category_index[:, latent, np.arange(data.n_items)]
    counts = np.bincount(idx.ravel(), minlength=j * k * k).reshape(j, k, k)
    return pi, sample_dirichlet(rng, beta + counts)


# ------------------------------------------------- normalised label draw
# The label draw as it stood when each model handle returned its labels'
# full conditional normalised: one simplex per column, then running sums
# divided by their last.

def label_probs(log_w):
    """The labels' full conditional from its (K, n) log weights: the
    log-sum-exp subtracted, exponentiated, each column summed to 1."""
    p = log_w - lse_rows(log_w)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=0)
    return p


def sample_categorical_rows_normalised(rng, log_w):
    """One label per column of `log_w`, from `label_probs`' running sums
    divided by their last and compared with one rng.random(n)."""
    cum = np.add.accumulate(label_probs(log_w), axis=0)
    cum /= cum[-1]
    u = rng.random(cum.shape[1])
    return np.add.reduce(u > cum, axis=0)


# ------------------------------------------ marginal Gibbs slice targets
# The marginal Gibbs arm's slice targets as they stood before each cached
# what its coordinate leaves fixed: every evaluation in log space over
# all K rows.  The cached targets must agree with these.

def mix_pi_target_log_space(ll, log_p):
    """The mixture's pi stick target; `ll` is the (K, n) matrix
    log f(x_i | mu_k, sigma^2)."""
    return float(np.add.reduce(lse_rows(ll + log_p[:, None])))


def mix_mu_lik_log_space(m_mat):
    """The likelihood part of the mixture's mean target, once row kk of
    the (K, n) log pi_k + log f(x_i | mu_k, sigma^2) holds the trial
    mean's entries."""
    return float(np.add.reduce(lse_rows(m_mat)))


def mix_log_sigma_target_log_space(x, mu, pi, ls):
    """The mixture's log sigma target: Lognormal(0, 1) kernel plus the
    exp Jacobian."""
    s = np.exp(ls)
    if not np.isfinite(s) or s <= 0:
        return -np.inf
    z = (x - mu[:, None]) / s
    norm_rows = -np.log(s) - 0.5 * LOG_2PI - 0.5 * z * z
    lik = float(lse_rows(norm_rows + np.log(pi)[:, None]).sum())
    return lik - 0.5 * ls * ls


def ds_pi_target_log_space(c, alpha_m1, log_p):
    """The rating model's pi stick target; `c` is the (K, I) matrix of
    each item's log likelihood given its true category."""
    return (float(np.add.reduce(lse_rows(log_p[:, None] + c)))
            + float(np.dot(alpha_m1, log_p)))


def ds_theta_row_target_log_space(others, col_rest, y, beta_m1, log_row):
    """The rating model's target for one confusion row: `others` is each
    item's log-sum-exp over the other true categories, `col_rest` its
    log joint with this row's entry left out, `y` the rater's ratings."""
    col = np.logaddexp(others, col_rest + log_row[y])
    return float(np.add.reduce(col)) + float(np.dot(beta_m1, log_row))


# ------------------------------------------------------ draws by name

def by_name(chain, name):
    """One parameter's draws from a ChainDraws."""
    return chain.draws[:, chain.param_names.index(name)]


def stack_param_chains(chains):
    """dict param name -> (M, N) array across chains."""
    names = chains[0].param_names
    return {name: np.stack([by_name(c, name) for c in chains])
            for name in names}
