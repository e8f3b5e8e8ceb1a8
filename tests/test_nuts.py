"""NUTS correctness on analytic Gaussian targets, adaptation behaviour,
and the determinism contract."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from scipy import stats as sps

from margmcmc import transforms
from margmcmc.nuts import (_adaptation_windows, _log_add_exp, _NutsKernel,
                           nuts_run)
from margmcmc.simulate import gen_dataset, get_scenario
from margmcmc.stats import make_rng
from oracles import by_name


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

    def log_post_u(self, data, u):
        return -0.5 * float(u @ self.prec @ u)

    def grad_u(self, data, u):
        return -self.prec @ u

    def log_post_grad_u(self, data, u):
        """(value, gradient, params), the params being the point itself."""
        return self.log_post_u(data, u), self.grad_u(data, u), u


def run_gaussian(cov, seed, iterations=4000, warmup=1000):
    model = GaussianTarget(cov)
    return nuts_run(model, None, iterations, warmup, make_rng(seed, 0))


def leapfrog(model, q, p, step_size, inv_mass, n_steps=1):
    """`n_steps` leapfrog steps of the NUTS kernel's tree leaf."""
    kernel = _NutsKernel(lambda u: model.log_post_grad_u(None, u), inv_mass,
                         None)
    g = model.grad_u(None, q)
    for _ in range(n_steps):
        leaf = kernel._leaf((q, p, None, g), 1, step_size, 0.0)
        q, p, _, g = leaf.ends[1]
    return q, p


def test_log_add_exp_matches_numpy_bit_for_bit():
    # infinities, nan, signed zeros, equal arguments, and gaps from 5e-324
    # to 1e3 between ordinary log weights
    gaps = [0.0, 5e-324, 1e-300, 1e-16, 1e-8, 0.3, 1.0, 36.0, 37.5, 709.0,
            745.2, 1e3]
    bases = [0.0, -0.0, 1.0, -3.7, 250.0, -1e3]
    vals = [math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324]
    vals += [b + sign * g for b in bases for g in gaps for sign in (1, -1)]
    with np.errstate(invalid="ignore", over="ignore"):
        for x, y in itertools.product(vals, repeat=2):
            want = np.float64(np.logaddexp(x, y)).tobytes()
            assert np.float64(_log_add_exp(x, y)).tobytes() == want, (x, y)


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
        x = by_name(chain, "x[1]")
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
        v1 = by_name(chain, "x[1]").var()
        v2 = by_name(chain, "x[2]").var()
        assert v1 == pytest.approx(1.0, rel=0.3)
        assert v2 == pytest.approx(100.0, rel=0.3)
        assert 50.0 < v2 / v1 < 200.0

    def test_windows_partition_warmup(self):
        ends = _adaptation_windows(1500)
        assert ends[-1] == 1450
        assert all(a < b for a, b in zip(ends, ends[1:]))
        assert _adaptation_windows(50) == []
        # the exact ends: a slow window that would leave less than twice
        # its size before the terminal buffer runs to it
        assert [_adaptation_windows(w) for w in (149, 150, 250, 300, 1500)] \
            == [[], [100], [100, 200], [100, 250], [100, 150, 250, 450, 1450]]


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
        class NaNTarget(GaussianTarget):
            def log_post_grad_u(self, data, u):
                return math.nan, np.zeros(self.n_dim), u

        with pytest.raises(ValueError, match="initial point"):
            nuts_run(NaNTarget(np.eye(2)), None, 100, 50, make_rng(67))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="warmup < iterations"):
            nuts_run(GaussianTarget(np.eye(2)), None, 100, 100, make_rng(67))

    @pytest.mark.parametrize("scenario_id", ["ds", "three-comp-4"])
    def test_each_point_evaluated_once(self, scenario_id):
        # kept draws and the step-size searches (one at the start, one at
        # the window end 100) reuse the evaluation the chain state holds
        scenario = get_scenario(scenario_id)
        data, _ = gen_dataset(scenario, 1, 0)
        model = scenario.model()
        with (mock.patch.object(model, "log_post_grad_u",
                                wraps=model.log_post_grad_u) as grads,
              mock.patch.object(transforms, "constrain_simplex",
                                wraps=transforms.constrain_simplex) as one,
              mock.patch.object(transforms, "constrain_simplex_rows",
                                wraps=transforms.constrain_simplex_rows)
              as rows):
            nuts_run(model, data, 160, 150, make_rng(70, 0))
        points = [c.args[1].tobytes() for c in grads.call_args_list]
        repeats = len(points) - len(set(points))
        assert repeats == 0
        assert one.call_count + rows.call_count == grads.call_count

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
        m1, m2 = by_name(exact, "x[1]").mean(), by_name(fd, "x[1]").mean()
        se = np.sqrt(by_name(exact, "x[1]").var() / 500
                     + by_name(fd, "x[1]").var() / 500)
        assert abs(m1 - m2) < 3 * se
