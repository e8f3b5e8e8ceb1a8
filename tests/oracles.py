"""Code only tests use: log densities for the priors, inverse transforms
for round trips, and value-only posteriors built from the public non-fused
joints plus `constrain`, the reference for each model's fused gradient."""

import numpy as np
from scipy import special

from margmcmc import dawid_skene as dsm
from margmcmc import mixture as mx
from margmcmc import transforms as tr
from margmcmc.stats import LOG_2PI


def log_normal_pdf(x, mu, sigma):
    """Log density of N(mu, sigma^2), evaluated directly in log space."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or not np.isfinite(mu):
        raise ValueError("non-finite input to log_normal_pdf")
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    z = (x - mu) / sigma
    return -0.5 * LOG_2PI - np.log(sigma) - 0.5 * z * z


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


def mix_marginal_log_post_u(data, u, k):
    """Mixture marginal log joint plus logJ at an unconstrained point."""
    params, lj, _ = mx.constrain(u, k)
    return mx.mix_marginal_log_joint(data, params) + lj


def ds_marginal_log_post_u(model, data, u):
    """Rating-model marginal log joint plus logJ at an unconstrained point."""
    params, lj = model.constrain(u)
    return dsm.ds_marginal_log_joint(data, params, model.hyper) + lj


def unconstrain_ordered(mu):
    mu = np.asarray(mu, dtype=float)
    if np.any(np.diff(mu) <= 0):
        raise ValueError(f"vector not strictly increasing: {mu}")
    return np.concatenate([[mu[0]], np.log(np.diff(mu))])


def unconstrain_positive(x):
    if x <= 0:
        raise ValueError(f"value not positive: {x}")
    return float(np.log(x))


def mix_unconstrain(params):
    return mx.pack(unconstrain_ordered(params.mu),
                   unconstrain_positive(params.sigma),
                   tr.unconstrain_simplex(params.pi))


def ds_unconstrain(params):
    j, k = params.theta.shape[:2]
    parts = [tr.unconstrain_simplex(params.pi)]
    parts += [tr.unconstrain_simplex(row)
              for row in params.theta.reshape(j * k, k)]
    return np.concatenate(parts)
