"""K-component Gaussian mixture: full and marginalised log joints,
analytic gradients in unconstrained space, and the latent full conditional.

Parameterisation: ordered means mu (label-switching guard), one shared
standard deviation sigma, mixture weights pi.  Priors: mu_1 ~ N(0, 10^2),
mu_k ~ N(0, 10^2) truncated to mu_k > mu_{k-1}, sigma ~ Lognormal(0, 1),
pi ~ Dirichlet(1,...,1).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import transforms as tr
from .stats import LOG_2PI, lse_rows

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
    """n x K matrix of log pi_k + log N(x_i | mu_k, sigma^2)."""
    z = (x[:, None] - params.mu[None, :]) / params.sigma
    return (np.log(params.pi)[None, :]
            - np.log(params.sigma) - 0.5 * LOG_2PI - 0.5 * z * z)


def log_prior(params):
    """Log prior density; -inf off the ordered support."""
    mu, sigma = params.mu, params.sigma
    k = len(mu)
    if sigma <= 0 or (k > 1 and np.any(np.diff(mu) <= 0)):
        return -np.inf
    lp = math.lgamma(k)                       # Dirichlet(1,...,1) normaliser
    ls = math.log(sigma)
    lp += -ls - 0.5 * LOG_2PI - 0.5 * ls * ls  # Lognormal(0, 1) on sigma
    z = mu / PRIOR_MU_SD
    lp += k * (-0.5 * LOG_2PI - math.log(PRIOR_MU_SD)) - 0.5 * float(z @ z)
    # truncation renormalisers: upper-tail mass above the previous mean
    if k > 1:
        lp -= float(special.log_ndtr(-z[:-1]).sum())
    return lp


def mix_full_log_joint(data, latent, params):
    """Log joint of (x, z, params) for the unmarginalised model."""
    lp = log_prior(params)
    if not np.isfinite(lp):
        return -np.inf
    z = np.asarray(latent, dtype=int)
    if z.shape != data.x.shape:
        raise ValueError("latent labels must match data length")
    ll = _component_loglik(data.x, params)
    return lp + float(ll[np.arange(len(z)), z].sum())


def mix_marginal_log_lik(data, params):
    """Marginalised log likelihood: sum_i log sum_k pi_k N(x_i|mu_k, s^2)."""
    return float(lse_rows(_component_loglik(data.x, params)).sum())


def mix_marginal_log_joint(data, params):
    lp = log_prior(params)
    if not np.isfinite(lp):
        return -np.inf
    return lp + mix_marginal_log_lik(data, params)


def mix_z_full_conditional(data, params):
    """P(z_i = k | x, params): the n x K matrix, one simplex per row."""
    ll = _component_loglik(data.x, params)
    probs = np.exp(ll - lse_rows(ll)[:, None])
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


# ------------------------------------------------- unconstrained interface

def pack(mu_raw, log_sigma, pi_raw):
    return np.concatenate([mu_raw, [log_sigma], pi_raw])


def split(u, k):
    u = np.asarray(u, dtype=float)
    return u[:k], float(u[k]), u[k + 1:]


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

    Shares the component log-likelihood matrix between the two, which the
    gradient-based sampler exploits on every leapfrog step.
    """
    mu_raw, log_sigma, _ = split(u, k)
    params, lj, sticks = constrain(u, k)
    lp = log_prior(params)
    if not np.isfinite(lp):
        return -np.inf, np.zeros_like(u)
    x = data.x
    mu, pi = params.mu, params.pi
    sigma = np.float64(params.sigma)   # inf instead of OverflowError
    ll = _component_loglik(x, params)
    row_lse = lse_rows(ll)
    value = lp + float(row_lse.sum()) + lj
    if not np.isfinite(value):
        return -np.inf, np.zeros_like(u)

    r = np.exp(ll - row_lse[:, None])
    diff = x[:, None] - mu[None, :]
    g_mu = (r * diff).sum(axis=0) / sigma**2 - mu / PRIOR_MU_SD**2
    if k > 1:
        a = mu[:-1] / PRIOR_MU_SD
        g_mu[:-1] += np.exp(-0.5 * LOG_2PI - 0.5 * a * a
                            - special.log_ndtr(-a)) / PRIOR_MU_SD
    g_sigma = float((r * (diff**2 / sigma**3 - 1.0 / sigma)).sum())
    g_sigma += -1.0 / sigma - np.log(sigma) / sigma
    g_pi = r.sum(axis=0) / pi
    grad = pack(tr.grad_ordered(mu_raw, g_mu),
                tr.grad_positive(log_sigma, g_sigma),
                tr.grad_simplex(sticks, g_pi))
    return value, grad


class MixtureModel:
    """Model handle used by the samplers and harness."""

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
        pi = rng.dirichlet(np.ones(self.k))
        return MixtureParams(mu=mu, sigma=sigma, pi=np.clip(pi, 1e-12, None) / pi.sum())
