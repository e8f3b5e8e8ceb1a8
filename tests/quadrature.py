"""Exact posterior moments by grid quadrature: a check with no sampler in
it.  Each log joint is written from README's statement of its model and
shares no density code with `src/`.  The two-component mixture:

  mu_1 ~ N(0, 10^2),  mu_2 ~ N(0, 10^2) truncated to mu_2 > mu_1,
  sigma ~ Lognormal(0, 1),  (pi_1, pi_2) ~ Dirichlet(1, 1),
  x_i ~ pi_1 N(mu_1, sigma^2) + pi_2 N(mu_2, sigma^2).

The rating model with J = 2 raters and K = 2 categories:

  pi ~ Dirichlet(3, 3),  theta[j, k] ~ Dirichlet(beta[k]), where beta[k]
  puts 0.6 of N = 8 prior counts on the diagonal (4.8) and 3.2 off it,
  z_i ~ Categorical(pi),  y_ij ~ Categorical(theta[j, z_i]).

Its likelihood depends on the data only through the four counts of the
rating patterns (y_i1, y_i2).

Each grid lies in unconstrained coordinates, each point weighted by the
Jacobian: the mixture's in (mu_1, mu_2, log sigma, logit pi_1), the
rating model's in the logits of its five sticks, pi[1] and theta[j, k, 1]
for (j, k) = (1, 1), (1, 2), (2, 1), (2, 2).  On a box whose faces hold a
negligible share of the mass, the trapezoid rule converges fast on these
smooth densities, so each integration runs at two grid sizes and fails
unless they agree and the faces are negligible.
"""

import functools

import numpy as np
from scipy import special

PRIOR_MU_SD = 10.0
RATING_ALPHA, RATING_DIAG, RATING_OFF = 3.0, 0.6 * 8.0, 0.4 * 8.0
# Points per axis of the grid that finds the box, and of the two grids that
# must agree; then the box's half-width in posterior sds per coordinate.
# The rating model's box is wider: a Dirichlet's tails on the logit scale
# fall off exponentially, not as a normal's.
MIX_GRID = (20, 24, 32, 7.0)
RATING_GRID = (12, 20, 24, 9.0)
RECENTRE = 4      # passes of the grid that finds the box
FACE_MASS = 1e-5  # the most mass one face of a box may hold
AGREE_SDS = 1e-3  # how far two grid sizes' means may differ, in sds


def mix2_log_joint(x, mu1, mu2, t, u):
    """Log joint density of the two-component mixture, less a constant, at
    grid coordinates mu1, mu2, t = log sigma and u = logit pi_1 (arrays
    that broadcast), Jacobian included; -inf where mu2 <= mu1."""
    a = mu1 / PRIOR_MU_SD
    lp = -0.5 * a * a - 0.5 * (mu2 / PRIOR_MU_SD) ** 2
    lp = lp - special.log_ndtr(-a)   # mu_2's truncation at mu_1
    lp = lp - 0.5 * t * t         # Lognormal(0, 1) times d sigma / dt
    log_pi1, log_pi2 = _log_expit(u), _log_expit(-u)
    lp = lp + log_pi1 + log_pi2   # flat Dirichlet times d pi_1 / du
    inv_sigma = np.exp(-t)
    for xi in x:
        z1, z2 = (xi - mu1) * inv_sigma, (xi - mu2) * inv_sigma
        lp = lp + np.logaddexp(log_pi1 - 0.5 * z1 * z1,
                               log_pi2 - 0.5 * z2 * z2) - t
    return np.where(mu2 > mu1, lp, -np.inf)


def rating2_log_joint(counts, u_pi, u11, u12, u21, u22):
    """Log joint density of the J = K = 2 rating model, less a constant,
    at the logits u_pi of pi[1] and u_jk of theta[j, k, 1] (arrays that
    broadcast), Jacobian included.  `counts[a, b]` is the number of items
    rater 1 put in category a and rater 2 in category b (0-based).

    A stick p = expit(u) with Dirichlet(a, b) prior on (p, 1 - p) has
    log kernel (a - 1) log p + (b - 1) log(1 - p), and dp/du = p (1 - p),
    so together a log p + b log(1 - p)."""
    log_pi = (_log_expit(u_pi), _log_expit(-u_pi))
    # log_theta[j][k][c] = log theta[j, k, c]
    log_theta = [[(_log_expit(u), _log_expit(-u)) for u in row]
                 for row in ((u11, u12), (u21, u22))]
    lp = RATING_ALPHA * (log_pi[0] + log_pi[1])
    for rows in log_theta:
        for k, (log_c1, log_c2) in enumerate(rows):
            diag, off = ((log_c1, log_c2) if k == 0 else (log_c2, log_c1))
            lp = lp + RATING_DIAG * diag + RATING_OFF * off
    for (a, b), n_ab in np.ndenumerate(np.asarray(counts)):
        lp = lp + n_ab * np.logaddexp(
            *[log_pi[k] + log_theta[0][k][a] + log_theta[1][k][b]
              for k in (0, 1)])
    return lp


def _log_expit(u):
    return -np.logaddexp(0.0, -u)


def _on_grid(fn, coords):
    """fn(*coords) on the whole grid of the sparse `coords`, evaluated one
    slice of the first axis at a time, which keeps a 24^5 grid's
    temporaries to a slice's size."""
    first, rest = coords[0], coords[1:]
    out = np.empty(np.broadcast_shapes(*(c.shape for c in coords)))
    for i in range(len(out)):
        out[i] = fn(first[i:i + 1], *rest)[0]
    return out


def _grid(log_joint, box, size):
    """Normalised trapezoid weights on a size^d grid over `box` (d (lo, hi)
    pairs), the grid's d coordinates as sparse arrays, and the weights'
    marginal on each axis."""
    coords = np.meshgrid(*[np.linspace(lo, hi, size) for lo, hi in box],
                         indexing="ij", sparse=True)
    w = _on_grid(log_joint, coords)
    w -= w.max()
    np.exp(w, out=w)
    for d in range(w.ndim):   # trapezoid: half weight on each face
        edge = [slice(None)] * w.ndim
        for end in (0, -1):
            edge[d] = end
            w[tuple(edge)] *= 0.5
    w /= w.sum()
    axes = set(range(w.ndim))
    return w, coords, [w.sum(axis=tuple(axes - {d})) for d in axes]


def _moments(marginal, values):
    """(mean, sd) of `values` under the weights `marginal` of one axis."""
    m = float(marginal.dot(values))
    return m, float(np.sqrt(marginal.dot((values - m) ** 2)))


def _integrate(log_joint, box, grid, functionals):
    """Exact posterior means of `functionals` (name -> (axis, function of
    that axis's coordinate)), with the finer grid's weights and sparse
    coordinates.  `grid` is (start, coarse, fine, box sds), as MIX_GRID.

    The box is re-centred RECENTRE times on the start grid, to the
    coordinates' means +- box sds posterior sds (at least two of the
    last grid's spacings, so a coarse grid that puts all the mass on one
    point still widens).  The means on the coarse and fine grids must
    then agree within AGREE_SDS posterior sds, and no face of either grid
    may hold more than FACE_MASS of the mass.
    """
    start, *sizes, box_sds = grid
    for _ in range(RECENTRE):
        _, coords, margs = _grid(log_joint, box, start)
        means, sds = np.array([_moments(m, c.ravel())
                               for m, c in zip(margs, coords)]).T
        step = [(hi - lo) / (start - 1) for lo, hi in box]
        half = np.maximum(box_sds * sds, 2.0 * np.array(step))
        box = list(zip(means - half, means + half))
    results = []
    for size in sizes:
        w, coords, margs = _grid(log_joint, box, size)
        face = 2.0 * max(max(m[0], m[-1]) for m in margs)
        if face > FACE_MASS:
            raise AssertionError(f"a face of the {size}-point grid holds "
                                 f"{face:.2g} of the mass")
        results.append({name: _moments(margs[d], f(coords[d].ravel()))
                        for name, (d, f) in functionals.items()})
    coarse, fine = results
    for name, (mean, sd) in fine.items():
        if abs(mean - coarse[name][0]) > AGREE_SDS * sd:
            raise AssertionError(f"{name}: {coarse[name][0]} on {sizes[0]}"
                                 f" points an axis against {mean} on "
                                 f"{sizes[1]}")
    return {name: mean for name, (mean, _) in fine.items()}, w, coords


def posterior_means(x):
    """Exact posterior means of mu[1], mu[2], sigma, pi[1] and pi[2]
    given data `x`, from a box wide around the data."""
    x = np.asarray(x, dtype=float)
    spread = float(x.max() - x.min()) + 1.0
    box = [(x.min() - spread, x.max() + spread)] * 2 + [(-4.0, 4.0)] * 2
    means, _, _ = _integrate(
        functools.partial(mix2_log_joint, x), box, MIX_GRID,
        {"mu[1]": (0, np.asarray), "mu[2]": (1, np.asarray),
         "sigma": (2, np.exp), "pi[1]": (3, special.expit),
         "pi[2]": (3, lambda u: special.expit(-u))})
    return means


def rating_posterior(counts):
    """Exact posterior means of pi[1] and theta[j, k, 1] (1-based names)
    given the rating-pattern counts, and the mass in the label-switched
    region, where both raters' mean diagonal is below 0.5.

    Swapping the two latent labels (pi[1] with pi[2], and each rater's
    rows) leaves the likelihood and the Jacobian as they are and maps a
    rater's mean diagonal d to 1 - d.  So the box's swapped image holds
    the box's mass times the mean of exp(log joint at the swapped point
    - log joint) over the box's points outside the region; the region's
    mass is the box's own share of it plus that image's.
    """
    log_joint = functools.partial(rating2_log_joint, counts)
    names = ["pi[1]"] + [f"theta[{j},{k},1]" for j in (1, 2) for k in (1, 2)]
    means, w, coords = _integrate(
        log_joint, [(-8.0, 8.0)] * 5, RATING_GRID,
        {name: (d, special.expit) for d, name in enumerate(names)})

    def gain(u_pi, u11, u12, u21, u22):
        # a rater's mean diagonal is below 0.5 where theta[j,1,1] <
        # theta[j,2,1]; exp(gain) is 0 in the region
        return np.where((u11 < u12) & (u21 < u22), -np.inf,
                        log_joint(-u_pi, u12, u11, u22, u21)
                        - log_joint(u_pi, u11, u12, u21, u22))
    g = _on_grid(gain, coords)
    in_box = float(w[g == -np.inf].sum())
    np.exp(g, out=g)
    image = float(w.ravel().dot(g.ravel()))
    return means, in_box + image / (1.0 + image)
