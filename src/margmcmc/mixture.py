"""K-component Gaussian mixture: full and marginalised log joints,
analytic gradients in unconstrained space, and the latent full conditional.

Parameterisation: ordered means mu (label-switching guard), one shared
standard deviation sigma, mixture weights pi.  Priors: mu_1 ~ N(0, 10^2),
mu_k ~ N(0, 10^2) truncated to mu_k > mu_{k-1}, sigma ~ Lognormal(0, 1),
pi ~ Dirichlet(1,...,1).

Observation-by-component matrices are component-major, (K, n): each
component's row is contiguous, and sums over the data run along it.
Reductions over the K components (`lse_rows`) add the K entries in
order.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import transforms as tr
from .stats import LOG_2PI, lse_rows, sample_dirichlet

PRIOR_MU_SD = 10.0


@dataclass
class MixtureParams:
    mu: np.ndarray      # (K,) strictly increasing
    sigma: float
    pi: np.ndarray      # (K,) simplex


@dataclass
class MixtureData:
    x: np.ndarray       # (n,)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 1 or not np.all(np.isfinite(self.x)):
            raise ValueError("observations must be a finite 1-d vector")


def _component_loglik(x, params):
    """(K, n) matrix of log pi_k + log N(x_i | mu_k, sigma^2)."""
    z = (x - params.mu[:, None]) / params.sigma
    return ((np.log(params.pi) - np.log(params.sigma) - 0.5 * LOG_2PI)[:, None]
            - 0.5 * z * z)


def _log_prior(mu, sigma):
    """Log prior at the ordered means `mu` (an array) and sigma; -inf off
    the ordered support.  Also returns z = mu / PRIOR_MU_SD and the
    truncation renormalisers log Phi(-z_k), k < K, as floats, which the
    gradient reuses."""
    m = mu.tolist()
    k = len(m)
    if sigma <= 0 or any(b - a <= 0 for a, b in zip(m, m[1:])):
        return -np.inf, None, None
    lp = math.lgamma(k)                       # Dirichlet(1,...,1) normaliser
    ls = math.log(sigma)
    lp += -ls - 0.5 * LOG_2PI - 0.5 * ls * ls  # Lognormal(0, 1) on sigma
    z = mu / PRIOR_MU_SD
    lp += k * (-0.5 * LOG_2PI - math.log(PRIOR_MU_SD)) - 0.5 * float(z @ z)
    # truncation renormalisers: upper-tail mass above the previous mean
    z = z.tolist()
    log_tail = [special.log_ndtr(-a) for a in z[:-1]]
    lp -= sum(log_tail)
    return lp, z, log_tail


def log_prior(params):
    """Log prior density; -inf off the ordered support."""
    return _log_prior(params.mu, params.sigma)[0]


def mix_full_log_joint(data, latent, params):
    """Log joint of (x, z, params) for the unmarginalised model."""
    lp = log_prior(params)
    if not np.isfinite(lp):
        return -np.inf
    z = np.asarray(latent, dtype=int)
    if z.shape != data.x.shape:
        raise ValueError("latent labels must match data length")
    ll = _component_loglik(data.x, params)
    return lp + float(ll[z, np.arange(len(z))].sum())


def mix_marginal_log_lik(data, params):
    """Marginalised log likelihood: sum_i log sum_k pi_k N(x_i|mu_k, s^2)."""
    return float(lse_rows(_component_loglik(data.x, params)).sum())


def mix_marginal_log_joint(data, params):
    lp = log_prior(params)
    if not np.isfinite(lp):
        return -np.inf
    return lp + mix_marginal_log_lik(data, params)


def mix_z_full_conditional(data, params):
    """P(z_i = k | x, params): the (K, n) matrix, one simplex per
    column."""
    ll = _component_loglik(data.x, params)
    probs = np.exp(ll - lse_rows(ll))
    probs /= probs.sum(axis=0)
    return probs


# ------------------------------------------------- unconstrained interface

def split(u, k):
    """Unconstrained vector -> (mu_raw, log_sigma, pi_raw) as Python
    floats, which the scalar transforms run on."""
    raw = np.asarray(u, dtype=float).tolist()
    return raw[:k], raw[k], raw[k + 1:]


def n_unconstrained(k):
    return 2 * k


def constrain(u, k):
    """Unconstrained vector -> (MixtureParams, log |Jacobian|, pi's
    sticks), the sticks being the forward pass tr.grad_simplex reuses."""
    mu_raw, log_sigma, pi_raw = split(u, k)
    mu, lj_mu = tr.constrain_ordered(mu_raw)
    sigma, lj_sigma = tr.constrain_positive(log_sigma)
    pi, lj_pi, sticks = tr.constrain_simplex(pi_raw)
    return (MixtureParams(mu=mu, sigma=sigma, pi=pi),
            lj_mu + lj_sigma + lj_pi, sticks)


def mix_marginal_logpost_grad_u(data, u, k):
    """Fused (value, gradient) of the unconstrained log posterior.

    Shares the (K, n) component log-likelihood matrix between the two,
    which the gradient-based sampler exploits on every leapfrog step.
    The K-sized parameter arithmetic runs on scalars (np.float64 where a
    Python float could raise OverflowError or ZeroDivisionError).
    """
    mu_raw, log_sigma, _ = split(u, k)
    params, lj, sticks = constrain(u, k)
    mu, sigma, pi = params.mu, params.sigma, params.pi
    lp, z_mu, log_tail = _log_prior(mu, sigma)
    if not np.isfinite(lp):
        return -np.inf, np.zeros(n_unconstrained(k))
    ll = _component_loglik(data.x, params)
    row_lse = lse_rows(ll)
    value = lp + float(row_lse.sum()) + lj
    if not np.isfinite(value):
        return -np.inf, np.zeros(n_unconstrained(k))

    r = np.exp(ll - row_lse)
    diff = data.x - mu[:, None]
    rd = r * diff
    r_sum = r.sum(axis=1)
    var = sigma * sigma
    g_mu = (rd.sum(axis=1) / var).tolist()
    for i, a in enumerate(z_mu):
        g_mu[i] -= a / PRIOR_MU_SD           # mu_i / PRIOR_MU_SD**2
        if i < k - 1:
            g_mu[i] += np.exp(-0.5 * LOG_2PI - 0.5 * a * a
                              - log_tail[i]) / PRIOR_MU_SD
    g_sigma = float((rd * diff).sum()) / (var * sigma) \
        - float(r_sum.sum()) / sigma
    g_sigma += -1.0 / sigma - np.log(sigma) / sigma
    return value, np.concatenate([
        tr.grad_ordered(mu_raw, g_mu),
        [tr.grad_positive(log_sigma, g_sigma)],
        tr.grad_simplex(sticks, (r_sum / pi).tolist())])


class MixtureModel:
    """Model handle used by the samplers and harness."""

    # the sampling arms of this family, in the benchmark matrix's order
    methods = ("nuts-marginal", "gibbs-full", "gibbs-full-restricted",
               "gibbs-marginal")
    z_full_conditional = staticmethod(mix_z_full_conditional)

    def __init__(self, k):
        self.k = int(k)

    @property
    def n_dim(self):
        return n_unconstrained(self.k)

    def param_names(self):
        k = self.k
        return ([f"mu[{i+1}]" for i in range(k)] + ["sigma"]
                + [f"pi[{i+1}]" for i in range(k)])

    def flatten(self, params):
        return np.concatenate([params.mu, [params.sigma], params.pi])

    def constrain(self, u):
        return constrain(u, self.k)[:2]

    def log_post_grad_u(self, data, u):
        return mix_marginal_logpost_grad_u(data, u, self.k)

    def init_params(self, rng):
        """Prior draw: sorted normals for mu, lognormal sigma, uniform pi."""
        mu = np.sort(rng.normal(0.0, PRIOR_MU_SD, size=self.k))
        sigma = float(np.exp(rng.normal()))
        return MixtureParams(mu=mu, sigma=sigma,
                             pi=sample_dirichlet(rng, np.ones(self.k)))
