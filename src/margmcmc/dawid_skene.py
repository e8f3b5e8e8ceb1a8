"""Dawid-Skene categorical rating model.

Ratings are stored as a dense I x J matrix (complete design: every rater
rates every item once), with category labels 0..K-1 internally.  No
ordering constraint on the parameters; label switching is handled by the
diagonal-heavy Dirichlet priors on the confusion rows.  Item-by-category
matrices are category-major, (K, I), like the mixture's (K, n).

The parameters are one stack of 1 + J K simplex rows, `DSParams.rows`:
pi, then rater j's confusion row for true category k at row 1 + j K + k.
The prior draw, the NUTS row transform and the conjugate draw each make
a whole stack; `pi` and `theta` (J, K, K) are its views, made once per
DSParams, and no other module splits it.

The priors are fixed: pi ~ Dirichlet(3, ..., 3), and each confusion row
theta[j, k] ~ Dirichlet(beta[k]) with N = 8 prior counts, a share p = 0.6
of them on the diagonal and the rest spread evenly (PRIOR_ALPHA,
PRIOR_CONCENTRATION, PRIOR_DIAG_MASS).  The model handle builds its
constants once: alpha and beta, also as the stack `prior_rows`, alpha - 1,
beta - 1 and the two Dirichlet normalisers (pi's, and J times the sum of
the confusion rows'), from math.lgamma.  Its `log_prior` serves the fused
gradient, whose DSParams are the NUTS arm's draws; `z_log_weights`
gives the labels' full conditional as (K, I) log weights, unnormalised.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import transforms as tr
from .stats import lse_rows, sample_dirichlet

PRIOR_ALPHA = 3.0           # Dirichlet parameter of every prevalence
PRIOR_CONCENTRATION = 8.0   # N, the prior counts of a confusion row
PRIOR_DIAG_MASS = 0.6       # p, the diagonal's share of them


@dataclass
class DSData:
    ratings: np.ndarray     # (I, J) ints in 0..K-1
    n_categories: int

    def __post_init__(self):
        self.ratings = np.asarray(self.ratings, dtype=int)
        if self.ratings.ndim != 2:
            raise ValueError("ratings must be an I x J matrix")
        if self.ratings.size and (
                self.ratings.min() < 0 or self.ratings.max() >= self.n_categories):
            raise ValueError("rating outside 0..K-1")

    @property
    def n_items(self):
        return self.ratings.shape[0]

    @property
    def n_raters(self):
        return self.ratings.shape[1]

    item_index = cached_property(lambda self: np.arange(self.n_items))

    @cached_property
    def rating_onehot(self):
        """(J*K, I) indicators: rating_onehot[j*K + c, i] = [y_ij == c]."""
        j, k, n = self.n_raters, self.n_categories, self.n_items
        oh = np.zeros((j * k, n))
        oh[np.arange(j)[:, None] * k + self.ratings.T, np.arange(n)] = 1.0
        return oh

    @cached_property
    def category_index(self):
        """(J, K, I) flat indices into a (J, K, K) array:
        log_theta.take(category_index)[j, k, i] = log theta[j, k, y_ij]."""
        j, k = self.n_raters, self.n_categories
        rows = np.arange(j * k).reshape(j, k, 1) * k
        return rows + self.ratings.T[:, None, :]


@dataclass
class DSParams:
    rows: np.ndarray        # the stack; pi and theta are its views

    def __post_init__(self):
        k = self.rows.shape[1]
        self.pi, self.theta = self.rows[0], self.rows[1:].reshape(-1, k, k)


def ds_beta_matrix(k):
    """K x K Dirichlet hyper-matrix: N*p on the diagonal, rows summing to N."""
    if k < 2:
        raise ValueError(f"need at least 2 categories, got {k}")
    n, p = PRIOR_CONCENTRATION, PRIOR_DIAG_MASS
    beta = np.full((k, k), n * (1.0 - p) / (k - 1))
    np.fill_diagonal(beta, n * p)
    return beta


def _item_category_loglik(data, log_theta):
    """C[k, i] = sum_j log theta[j, k, y_ij]  (K x I), summed in rater
    order."""
    return np.add.reduce(log_theta.take(data.category_index), axis=0)


def _dirichlet_log_norm(alpha):
    """log Gamma(sum alpha) - sum_k log Gamma(alpha_k) of a 1-d `alpha`,
    both sums exactly rounded (math.fsum)."""
    a = alpha.tolist()
    return math.lgamma(math.fsum(a)) - math.fsum(map(math.lgamma, a))


class DawidSkeneModel:
    """Model handle used by the samplers and harness; it owns the prior's
    constants (see the module docstring)."""

    # no restricted arm: its sampler set would coincide with gibbs-full's
    methods = ("nuts-marginal", "gibbs-full", "gibbs-marginal")

    def __init__(self, n_raters, n_categories):
        self.j = int(n_raters)
        self.k = int(n_categories)
        self.alpha = np.full(self.k, PRIOR_ALPHA)
        self.beta = ds_beta_matrix(self.k)
        self.alpha_m1 = self.alpha - 1.0
        self.beta_m1 = self.beta - 1.0
        self.prior_rows = np.vstack([self.alpha] + [self.beta] * self.j)
        self.log_norm_pi = _dirichlet_log_norm(self.alpha)
        self.log_norm_theta = self.j * sum(_dirichlet_log_norm(row)
                                           for row in self.beta)

    @property
    def n_dim(self):
        return (self.k - 1) * (1 + self.j * self.k)

    def param_names(self):
        names = [f"pi[{i+1}]" for i in range(self.k)]
        for jj in range(self.j):
            for kk in range(self.k):
                for c in range(self.k):
                    names.append(f"theta[{jj+1},{kk+1},{c+1}]")
        return names

    def flatten(self, params):
        return params.rows.ravel()

    def z_log_weights(self, data, params):
        """log P(z_i = k | y, params) up to a constant per column: the
        (K, I) matrix log pi_k + sum_j log theta[j, k, y_ij]."""
        return np.log(params.pi)[:, None] + _item_category_loglik(
            data, np.log(params.theta))

    def log_prior(self, log_pi, log_theta):
        """Dirichlet log prior of pi and every confusion row, given their
        logs."""
        return (self.log_norm_pi + float(self.alpha_m1.dot(log_pi))
                + self.log_norm_theta + float((self.beta_m1 * log_theta).sum()))

    def log_post_grad_u(self, data, u):
        """Fused (value, gradient, params) of the unconstrained log
        posterior; one stick pass serves params (the DSParams at `u`, also
        returned with a -inf value), logJ and the pull-back.  One (K, I)
        buffer is turned in place from C into ll, then r.  `u` holds the
        stack's sticks, K - 1 per row."""
        j, k = self.j, self.k
        u = np.asarray(u, dtype=float)
        rows, log_j, sticks = tr.constrain_simplex_rows(
            u.reshape(1 + j * k, k - 1))
        params = DSParams(rows)
        log_pi, log_theta = np.log(params.pi), np.log(params.theta)

        ll = _item_category_loglik(data, log_theta)
        ll += log_pi[:, None]
        row_lse = lse_rows(ll)
        value = float(np.add.reduce(row_lse)) \
            + self.log_prior(log_pi, log_theta) + float(np.add.reduce(log_j))
        if not math.isfinite(value):
            return -math.inf, np.zeros_like(u), params

        ll -= row_lse
        r = np.exp(ll, out=ll)
        # d/dp of every simplex row, laid out (K, rows) for the pull-back
        g_p = np.empty((k, 1 + j * k))
        np.divide(np.add.reduce(r, axis=1) + self.alpha_m1, params.pi,
                  out=g_p[:, 0])
        # counts[j, k, c] = sum_i r[k, i] [y_ij == c]
        counts = (r @ data.rating_onehot.T).reshape(k, j, k).transpose(1, 0, 2)
        np.divide(self.beta_m1 + counts, params.theta,
                  out=g_p[:, 1:].reshape(k, j, k).transpose(1, 2, 0))
        return value, tr.grad_simplex_rows(sticks, g_p.T).ravel(), params

    def init_params(self, rng):
        """Prior draw for pi and every confusion row, in one stack."""
        return DSParams(sample_dirichlet(rng, self.prior_rows))
