"""NUTS correctness on analytic Gaussian targets, adaptation behaviour,
and the determinism contract."""

import numpy as np
import pytest
from scipy import stats as sps

from margmcmc.nuts import _adaptation_windows, _NutsKernel, nuts_run
from margmcmc.stats import make_rng


class GaussianTarget:
    """Minimal model handle for a fixed multivariate normal."""

    def __init__(self, cov):
        self.cov = np.asarray(cov, dtype=float)
        self.prec = np.linalg.inv(self.cov)
        self.n_dim = len(self.cov)

    def param_names(self):
        return [f"x[{i+1}]" for i in range(self.n_dim)]

    def flatten(self, params):
        return params

    def constrain(self, u):
        return u, 0.0

    def log_post_u(self, data, u):
        return -0.5 * float(u @ self.prec @ u)

    def grad_u(self, data, u):
        return -self.prec @ u

    def log_post_grad_u(self, data, u):
        return self.log_post_u(data, u), self.grad_u(data, u)


def run_gaussian(cov, seed, iterations=4000, warmup=1000):
    model = GaussianTarget(cov)
    return nuts_run(model, None, iterations, warmup, make_rng(seed, 0))


def leapfrog(model, q, p, step_size, inv_mass, n_steps=1):
    """`n_steps` leapfrog steps of the NUTS kernel's tree leaf."""
    kernel = _NutsKernel(lambda u: model.log_post_grad_u(None, u), inv_mass,
                         None)
    g = model.grad_u(None, q)
    for _ in range(n_steps):
        leaf = kernel._leaf(q, p, g, 1, step_size, 0.0)
        q, p, g = leaf.q_plus, leaf.p_plus, leaf.g_plus
    return q, p


class TestLeapfrog:
    def test_reversibility(self):
        model = GaussianTarget(np.eye(3))
        rng = make_rng(60)
        q0, p0 = rng.normal(size=3), rng.normal(size=3)
        inv_mass = np.array([1.0, 2.0, 0.5])
        q1, p1 = leapfrog(model, q0, p0, 0.3, inv_mass)
        q2, p2 = leapfrog(model, q1, -p1, 0.3, inv_mass)
        assert np.allclose(q2, q0, atol=1e-12)
        assert np.allclose(-p2, p0, atol=1e-12)

    def test_energy_error_scales_with_step(self):
        model = GaussianTarget(np.eye(1))

        def energy_err(eps):
            q, p = np.array([1.0]), np.array([0.5])
            h0 = -model.log_post_u(None, q) + 0.5 * p @ p
            q, p = leapfrog(model, q, p, eps, np.ones(1), int(1.0 / eps))
            return abs(-model.log_post_u(None, q) + 0.5 * p @ p - h0)

        # second-order integrator: error drops ~4x when eps halves
        assert energy_err(0.05) < energy_err(0.1)


class TestStandardNormal:
    def test_ks_and_moments(self):
        chain = run_gaussian(np.eye(1), 61, iterations=11000, warmup=1000)
        x = chain.by_name("x[1]")
        assert sps.kstest(x[::10], sps.norm.cdf).pvalue > 1e-6
        assert abs(x.mean()) < 0.05
        assert x.var() == pytest.approx(1.0, abs=0.1)
        assert chain.divergences == 0


class TestCorrelatedGaussian:
    def test_covariance_recovery(self):
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        chain = run_gaussian(cov, 62)
        draws = chain.draws
        emp = np.cov(draws.T)
        assert np.allclose(emp, cov, atol=0.15)


class TestMassAdaptation:
    def test_anisotropic_scales_learned(self):
        # without mass adaptation this target forces tiny steps; with it,
        # both scales mix well and the tree depth stays moderate
        cov = np.diag([1.0, 100.0])
        chain = run_gaussian(cov, 63, iterations=3000, warmup=1500)
        v1 = chain.by_name("x[1]").var()
        v2 = chain.by_name("x[2]").var()
        assert v1 == pytest.approx(1.0, rel=0.3)
        assert v2 == pytest.approx(100.0, rel=0.3)
        assert 50.0 < v2 / v1 < 200.0

    def test_windows_partition_warmup(self):
        ends = _adaptation_windows(1500)
        assert ends[-1] == 1450
        assert all(a < b for a, b in zip(ends, ends[1:]))
        assert _adaptation_windows(50) == []


class TestContract:
    def test_deterministic(self):
        a = run_gaussian(np.eye(2), 65, iterations=500, warmup=200)
        b = run_gaussian(np.eye(2), 65, iterations=500, warmup=200)
        assert np.array_equal(a.draws, b.draws)

    def test_tree_depth_recorded(self):
        chain = run_gaussian(np.eye(2), 66, iterations=400, warmup=200)
        assert chain.tree_depths.shape == (200,)
        assert np.all(chain.tree_depths >= 0)
        assert np.all(chain.tree_depths <= 10)

    def test_rejects_bad_init(self):
        model = GaussianTarget(np.eye(2))
        with pytest.raises(ValueError):
            nuts_run(model, None, 100, 50, make_rng(67),
                     init=np.array([np.nan, 0.0]))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="warmup < iterations"):
            nuts_run(GaussianTarget(np.eye(2)), None, 100, 100, make_rng(67))

    def test_finite_difference_gradients_agree(self):
        # consuming numeric gradients must not change the target
        class FDTarget(GaussianTarget):
            def grad_u(self, data, u):
                h = 1e-6
                return np.array([
                    (self.log_post_u(data, u + h * e)
                     - self.log_post_u(data, u - h * e)) / (2 * h)
                    for e in np.eye(self.n_dim)])

        exact = nuts_run(GaussianTarget(np.eye(1)), None, 3000, 1000,
                         make_rng(68, 0))
        fd = nuts_run(FDTarget(np.eye(1)), None, 3000, 1000, make_rng(69, 0))
        m1, m2 = exact.by_name("x[1]").mean(), fd.by_name("x[1]").mean()
        se = np.sqrt(exact.by_name("x[1]").var() / 500
                     + fd.by_name("x[1]").var() / 500)
        assert abs(m1 - m2) < 3 * se
