"""Mixture model oracles: latent enumeration, finite differences, and
conditional-vs-joint consistency."""

import itertools

import numpy as np
import pytest
from scipy.special import logsumexp

from margmcmc import mixture as mx
from margmcmc.stats import make_rng
from oracles import (label_probs, log_dirichlet_pdf, log_lognormal_pdf,
                     log_normal_pdf, log_truncated_normal_pdf, mix_constrain,
                     mix_full_log_joint, mix_log_prior, mix_marginal_log_lik,
                     mix_marginal_log_post_u, mix_unconstrain)


def random_params(rng, k):
    mu = np.sort(rng.normal(0, 5, size=k))
    while np.any(np.diff(mu) <= 0):
        mu = np.sort(rng.normal(0, 5, size=k))
    return mx.MixtureParams(mu=mu, sigma=float(rng.uniform(0.3, 4.0)),
                            pi=rng.dirichlet(np.ones(k)))


def enumerate_marginal(data, params):
    """Brute-force sum of the full likelihood over all K^n assignments."""
    n = len(data.x)
    k = len(params.mu)
    lp_prior = mix_log_prior(params)
    terms = [mix_full_log_joint(data, np.array(z), params) - lp_prior
             for z in itertools.product(range(k), repeat=n)]
    return logsumexp(terms)


class TestMarginalisation:
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_enumeration(self, k):
        rng = make_rng(100 + k)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            data = mx.MixtureData(rng.normal(0, 4, size=n))
            params = random_params(rng, k)
            want = enumerate_marginal(data, params)
            got = mix_marginal_log_lik(data, params)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-10)

    def test_single_component_is_plain_normal(self):
        rng = make_rng(7)
        x = rng.normal(size=10)
        params = mx.MixtureParams(mu=np.array([1.5]), sigma=2.0,
                                  pi=np.array([1.0]))
        want = log_normal_pdf(x, 1.5, 2.0).sum()
        assert mix_marginal_log_lik(mx.MixtureData(x), params) == \
            pytest.approx(want, rel=1e-12)

    def test_permutation_invariance(self):
        # the likelihood ignores which label carries which component
        rng = make_rng(8)
        data = mx.MixtureData(rng.normal(0, 3, size=30))
        mu = np.array([-2.0, 1.0, 4.0])
        pi = np.array([0.2, 0.5, 0.3])
        base = mx.MixtureParams(mu=mu, sigma=1.5, pi=pi)
        want = mix_marginal_log_lik(data, base)
        for perm in itertools.permutations(range(3)):
            perm = list(perm)
            swapped = mx.MixtureParams(mu=mu[perm], sigma=1.5, pi=pi[perm])
            assert mix_marginal_log_lik(data, swapped) == \
                pytest.approx(want, rel=1e-12)


class TestPrior:
    def test_matches_component_densities(self):
        rng = make_rng(9)
        for k in (2, 3):
            params = random_params(rng, k)
            want = log_dirichlet_pdf(params.pi, np.ones(k))
            want += log_lognormal_pdf(params.sigma, 0.0, 1.0)
            want += float(log_normal_pdf(params.mu[0], 0.0, 10.0))
            for i in range(1, k):
                want += log_truncated_normal_pdf(
                    params.mu[i], 0.0, 10.0, params.mu[i - 1])
            assert mix_log_prior(params) == pytest.approx(want, rel=1e-10)

    def test_off_support(self):
        bad = mx.MixtureParams(mu=np.array([1.0, 0.0]), sigma=1.0,
                               pi=np.array([0.5, 0.5]))
        assert mix_log_prior(bad) == -np.inf


class TestLatentConditional:
    def test_matches_joint_ratio(self):
        rng = make_rng(10)
        data = mx.MixtureData(rng.normal(0, 3, size=6))
        params = random_params(rng, 2)
        probs = label_probs(mx.MixtureModel(2).z_log_weights(data, params))
        z = np.zeros(6, dtype=int)
        for i in range(6):
            num = np.empty(2)
            for k in (0, 1):
                zi = z.copy()
                zi[i] = k
                num[k] = mix_full_log_joint(data, zi, params)
            want = np.exp(num - logsumexp(num))
            assert np.allclose(probs[:, i], want, atol=1e-12)

    def test_rows_normalised(self):
        rng = make_rng(11)
        data = mx.MixtureData(rng.normal(size=50))
        params = random_params(rng, 3)
        log_w = mx.MixtureModel(3).z_log_weights(data, params)
        probs = label_probs(log_w)
        assert probs.shape == (3, 50)
        assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-12)
        # each column's constant is that point's marginal log likelihood
        assert logsumexp(log_w, axis=0).sum() == pytest.approx(
            mix_marginal_log_lik(data, params), rel=1e-12)


class TestUnconstrainedInterface:
    @pytest.mark.parametrize("k", [2, 3])
    def test_round_trip(self, k):
        rng = make_rng(12 + k)
        params = random_params(rng, k)
        u = mix_unconstrain(params)
        back = mix_constrain(u, k)[0]
        assert np.allclose(back.mu, params.mu, atol=1e-9)
        assert back.sigma == pytest.approx(params.sigma, rel=1e-12)
        assert np.allclose(back.pi, params.pi, atol=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gradient_matches_finite_differences(self, k):
        rng = make_rng(14 + k)
        data = mx.MixtureData(rng.normal(0, 4, size=40))
        h = 1e-6
        for _ in range(10):
            u = rng.normal(size=2 * k)
            got = mx.MixtureModel(k).log_post_grad_u(data, u)[1]
            for i in range(len(u)):
                e = np.zeros(len(u))
                e[i] = h
                num = (mix_marginal_log_post_u(data, u + e, k)
                       - mix_marginal_log_post_u(data, u - e, k)) / (2 * h)
                assert got[i] == pytest.approx(num, rel=1e-4, abs=1e-5)

    def test_fused_matches_separate(self):
        rng = make_rng(16)
        data = mx.MixtureData(rng.normal(0, 4, size=40))
        for k in (2, 3):
            u = rng.normal(size=2 * k)
            v, _, _ = mx.MixtureModel(k).log_post_grad_u(data, u)
            assert v == pytest.approx(mix_marginal_log_post_u(data, u, k))

    def test_extreme_point_is_finite_or_rejected(self):
        data = mx.MixtureData(np.array([0.0, 1.0]))
        u = np.array([0.0, 0.0, 800.0, 0.0])   # sigma = exp(800)
        with np.errstate(over="ignore"):
            v, g, _ = mx.MixtureModel(2).log_post_grad_u(data, u)
        assert v == -np.inf and np.all(np.isfinite(g))


class TestModelHandle:
    def test_names_align_with_flatten(self):
        model = mx.MixtureModel(3)
        names = model.param_names()
        params = random_params(make_rng(20), 3)
        flat = model.flatten(params)
        assert len(names) == len(flat) == 7
        assert names[3] == "sigma" and flat[3] == params.sigma

    def test_init_on_support(self):
        model = mx.MixtureModel(3)
        rng = make_rng(21)
        for _ in range(50):
            p = model.init_params(rng)
            assert np.isfinite(mix_log_prior(p))
