"""Exact posterior moments by grid quadrature: a check with no sampler in
it.  The log joint is written from README's statement of the
two-component mixture and shares no density code with `src/`:

  mu_1 ~ N(0, 10^2),  mu_2 ~ N(0, 10^2) truncated to mu_2 > mu_1,
  sigma ~ Lognormal(0, 1),  (pi_1, pi_2) ~ Dirichlet(1, 1),
  x_i ~ pi_1 N(mu_1, sigma^2) + pi_2 N(mu_2, sigma^2).

The grid lies in (mu_1, mu_2, log sigma, logit pi_1), each point weighted
by the Jacobian of sigma = e^t and pi_1 = expit(u).  On a box whose faces
hold a negligible share of the mass, the trapezoid rule converges fast on
this smooth density, so `posterior_means` integrates at two grid sizes
and fails unless they agree and the faces are negligible.
"""

import numpy as np
from scipy import special

PRIOR_MU_SD = 10.0
SIZES = (24, 32)  # points per axis of the two grids that must agree
START_SIZE, RECENTRE = 20, 4   # the grid that finds the box, and its passes
BOX_SDS = 7.0     # a box's half-width, in posterior sds per coordinate
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
    log_pi1, log_pi2 = -np.logaddexp(0.0, -u), -np.logaddexp(0.0, u)
    lp = lp + log_pi1 + log_pi2   # flat Dirichlet times d pi_1 / du
    inv_sigma = np.exp(-t)
    for xi in x:
        z1, z2 = (xi - mu1) * inv_sigma, (xi - mu2) * inv_sigma
        lp = lp + np.logaddexp(log_pi1 - 0.5 * z1 * z1,
                               log_pi2 - 0.5 * z2 * z2) - t
    return np.where(mu2 > mu1, lp, -np.inf)


def _grid(x, box, size):
    """Normalised trapezoid weights on a size^4 grid over `box` (four
    (lo, hi) pairs), with the grid's four coordinates as sparse arrays."""
    coords = np.meshgrid(*[np.linspace(lo, hi, size) for lo, hi in box],
                         indexing="ij", sparse=True)
    lj = mix2_log_joint(x, *coords)
    w = np.exp(lj - lj.max())
    for d in range(4):   # trapezoid: half weight on each face
        edge = [slice(None)] * 4
        for end in (0, -1):
            edge[d] = end
            w[tuple(edge)] *= 0.5
    return w / w.sum(), coords


def _moments(w, values):
    """(mean, sd) under weights `w` of each array in `values`."""
    out = []
    for v in values:
        m = float((w * v).sum())
        out.append((m, float(np.sqrt((w * (v - m) ** 2).sum()))))
    return out


def _face_mass(w):
    """The largest share of the mass on any one face of the grid."""
    return max(float(w.take(end, axis=d).sum() * 2.0)
               for d in range(4) for end in (0, -1))


def posterior_means(x):
    """Exact posterior means of mu[1], mu[2], sigma, pi[1] and pi[2]
    given data `x`.

    The box starts wide around the data and is re-centred RECENTRE times
    on START_SIZE^4 points, to the moments' means +- BOX_SDS sds (at
    least two of the last grid's spacings, so a coarse grid that puts
    all the mass on one point still widens).  The means on the two SIZES
    grids must then agree within AGREE_SDS posterior sds, and no face of
    either grid may hold more than FACE_MASS of the mass.
    """
    x = np.asarray(x, dtype=float)
    spread = float(x.max() - x.min()) + 1.0
    box = [(x.min() - spread, x.max() + spread)] * 2 + [(-4.0, 4.0)] * 2
    for _ in range(RECENTRE):
        w, coords = _grid(x, box, START_SIZE)
        means, sds = np.array(_moments(w, coords)).T
        step = [(hi - lo) / (START_SIZE - 1) for lo, hi in box]
        half = np.maximum(BOX_SDS * sds, 2.0 * np.array(step))
        box = list(zip(means - half, means + half))
    results = []
    for size in SIZES:
        w, (mu1, mu2, t, u) = _grid(x, box, size)
        face = _face_mass(w)
        if face > FACE_MASS:
            raise AssertionError(f"a face of the {size}^4 grid holds "
                                 f"{face:.2g} of the mass")
        pi1 = special.expit(u)
        results.append(dict(zip(
            ("mu[1]", "mu[2]", "sigma", "pi[1]", "pi[2]"),
            _moments(w, (mu1, mu2, np.exp(t), pi1, 1.0 - pi1)))))
    coarse, fine = results
    for name, (mean, sd) in fine.items():
        if abs(mean - coarse[name][0]) > AGREE_SDS * sd:
            raise AssertionError(f"{name}: {coarse[name][0]} at {SIZES[0]}^4"
                                 f" against {mean} at {SIZES[1]}^4")
    return {name: mean for name, (mean, _) in fine.items()}
