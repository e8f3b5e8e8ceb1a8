"""K-component Gaussian mixture: the fused marginalised log posterior,
its analytic gradient in unconstrained space and the parameters at the
point, and the labels' full conditional as unnormalised log weights.

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


def _component_loglik(diff, params):
    """(K, n) matrix of log pi_k + log N(x_i | mu_k, sigma^2), from the
    (K, n) differences x_i - mu_k."""
    z = diff / params.sigma
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


class MixtureModel:
    """Model handle used by the samplers and harness."""

    # the sampling arms of this family, in the benchmark matrix's order
    methods = ("nuts-marginal", "gibbs-full", "gibbs-full-restricted",
               "gibbs-marginal")

    def __init__(self, k):
        self.k = int(k)

    @property
    def n_dim(self):
        return 2 * self.k

    def param_names(self):
        k = self.k
        return ([f"mu[{i+1}]" for i in range(k)] + ["sigma"]
                + [f"pi[{i+1}]" for i in range(k)])

    def flatten(self, params):
        return np.concatenate([params.mu, [params.sigma], params.pi])

    def z_log_weights(self, data, params):
        """log P(z_i = k | x, params) up to a constant per column: the
        (K, n) matrix log pi_k + log N(x_i | mu_k, sigma^2)."""
        return _component_loglik(data.x - params.mu[:, None], params)

    def log_post_grad_u(self, data, u):
        """Fused (value, gradient, params) of the unconstrained log
        posterior at `u`, `params` being the MixtureParams its forward
        pass builds (returned with the -inf value too).

        Shares the (K, n) component log-likelihood matrix between the
        value and the gradient, which the gradient-based sampler exploits
        on every leapfrog step.  The K-sized parameter arithmetic runs on
        scalars (np.float64 where a Python float could raise
        OverflowError or ZeroDivisionError).
        """
        k = self.k
        # the scalar transforms run on Python floats
        raw = np.asarray(u, dtype=float).tolist()
        mu_raw, log_sigma, pi_raw = raw[:k], raw[k], raw[k + 1:]
        mu, lj_mu = tr.constrain_ordered(mu_raw)
        sigma, lj_sigma = tr.constrain_positive(log_sigma)
        pi, lj_pi, sticks = tr.constrain_simplex(pi_raw)
        params = MixtureParams(mu=mu, sigma=sigma, pi=pi)
        lj = lj_mu + lj_sigma + lj_pi
        lp, z_mu, log_tail = _log_prior(mu, sigma)
        if not np.isfinite(lp):
            return -np.inf, np.zeros(2 * k), params
        diff = data.x - mu[:, None]
        ll = _component_loglik(diff, params)
        row_lse = lse_rows(ll)
        value = lp + float(row_lse.sum()) + lj
        if not np.isfinite(value):
            return -np.inf, np.zeros(2 * k), params

        r = np.exp(ll - row_lse)
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
            tr.grad_simplex(sticks, (r_sum / pi).tolist())]), params

    def init_params(self, rng):
        """Prior draw: sorted normals for mu, lognormal sigma, uniform pi."""
        mu = np.sort(rng.normal(0.0, PRIOR_MU_SD, size=self.k))
        sigma = float(np.exp(rng.normal()))
        return MixtureParams(mu=mu, sigma=sigma,
                             pi=sample_dirichlet(rng, np.ones(self.k)))
