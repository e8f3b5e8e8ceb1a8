"""Rating-model oracles: latent enumeration, finite differences, prior
composition and label-permutation invariance."""

import itertools

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from margmcmc import dawid_skene as ds
from margmcmc.stats import make_rng, sample_dirichlet
from oracles import (ds_constrain, ds_full_log_joint, ds_log_prior,
                     ds_marginal_log_joint, ds_marginal_log_lik,
                     ds_marginal_log_post_u, ds_unconstrain, label_probs,
                     log_dirichlet_pdf)


def random_params(rng, j, k):
    theta = rng.dirichlet(np.full(k, 2.0), size=(j, k))
    return ds.DSParams(pi=rng.dirichlet(np.full(k, 2.0)), theta=theta)


def random_data(rng, i, j, k):
    return ds.DSData(rng.integers(0, k, size=(i, j)), k)


def enumerate_marginal(data, params):
    i_n = data.n_items
    k = len(params.pi)
    lp_prior = ds_log_prior(params)
    terms = [ds_full_log_joint(data, np.array(z), params) - lp_prior
             for z in itertools.product(range(k), repeat=i_n)]
    return logsumexp(terms)


class TestData:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ds.DSData(np.array([[0, 3]]), 3)
        with pytest.raises(ValueError):
            ds.DSData(np.array([[-1, 0]]), 3)

    def test_onehot_consistent(self):
        rng = make_rng(0)
        data = random_data(rng, 20, 4, 3)
        oh = data.rating_onehot.reshape(4, 3, 20)
        for j in range(4):
            for i in range(20):
                assert oh[j, data.ratings[i, j], i] == 1.0
                assert oh[j, :, i].sum() == 1.0

    def test_item_category_gather_matches_rater_loop(self):
        rng = make_rng(39)
        data = random_data(rng, 40, 6, 4)
        log_theta = np.log(random_params(rng, 6, 4).theta)
        want = np.zeros((4, 40))
        for j in range(6):
            want += log_theta[j][:, data.ratings[:, j]]
        got = ds._item_category_loglik(data, log_theta)
        assert np.array_equal(got, want)


class TestBetaMatrix:
    def test_default_values(self):
        beta = ds.ds_beta_matrix(5)
        assert np.allclose(np.diag(beta), 8.0 * 0.6)
        off = beta[~np.eye(5, dtype=bool)]
        assert np.allclose(off, 8.0 * 0.4 / 4)
        assert np.allclose(beta.sum(axis=1), 8.0)

    def test_validates(self):
        with pytest.raises(ValueError):
            ds.ds_beta_matrix(1)


class TestMarginalisation:
    def test_matches_enumeration(self):
        rng = make_rng(30)
        for _ in range(20):
            i_n = int(rng.integers(1, 5))
            j_n = int(rng.integers(1, 4))
            k = int(rng.integers(2, 4))
            data = random_data(rng, i_n, j_n, k)
            params = random_params(rng, j_n, k)
            want = enumerate_marginal(data, params)
            got = ds_marginal_log_lik(data, params)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-10)

    def test_category_permutation_invariance(self):
        # relabelling categories consistently leaves the likelihood unchanged
        rng = make_rng(31)
        k = 3
        data = random_data(rng, 15, 4, k)
        params = random_params(rng, 4, k)
        want = ds_marginal_log_lik(data, params)
        for perm in itertools.permutations(range(k)):
            perm = np.array(perm)
            inv = np.argsort(perm)
            data_p = ds.DSData(perm[data.ratings], k)
            theta_p = params.theta[:, inv][:, :, inv]
            params_p = ds.DSParams(pi=params.pi[inv], theta=theta_p)
            assert ds_marginal_log_lik(data_p, params_p) == \
                pytest.approx(want, rel=1e-12)


class TestPrior:
    def test_matches_dirichlet_sum(self):
        rng = make_rng(32)
        j, k = 4, 3
        params = random_params(rng, j, k)
        beta = ds.ds_beta_matrix(k)
        want = log_dirichlet_pdf(params.pi, np.full(k, 3.0))
        for jj in range(j):
            for kk in range(k):
                want += log_dirichlet_pdf(params.theta[jj, kk], beta[kk])
        assert ds_log_prior(params) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_normaliser_matches_gammaln(self, k):
        # math.lgamma and scipy's gammaln differ by a few ulps per term:
        # the bound is 1e-14 of the summed term magnitudes
        rng = make_rng(33, k)
        rows = [*ds.ds_beta_matrix(k), np.full(k, ds.PRIOR_ALPHA),
                *rng.uniform(0.05, 20.0, size=(200, k))]
        for alpha in rows:
            terms = np.concatenate([[gammaln(alpha.sum())], gammaln(alpha)])
            want = terms[0] - terms[1:].sum()
            assert abs(ds._dirichlet_log_norm(alpha) - want) <= \
                1e-14 * np.abs(terms).sum()


class TestLatentConditional:
    def test_matches_joint_ratio(self):
        rng = make_rng(33)
        data = random_data(rng, 5, 3, 3)
        params = random_params(rng, 3, 3)
        probs = label_probs(
            ds.DawidSkeneModel(3, 3).z_log_weights(data, params))
        z = np.zeros(5, dtype=int)
        for i in range(5):
            num = np.empty(3)
            for k in range(3):
                zi = z.copy()
                zi[i] = k
                num[k] = ds_full_log_joint(data, zi, params)
            want = np.exp(num - logsumexp(num))
            assert np.allclose(probs[:, i], want, atol=1e-12)

    def test_identity_raters_pin_labels(self):
        k = 3
        eye = np.broadcast_to(np.eye(k), (2, k, k)).copy()
        # strictly, rows must be simplexes with mass 1 on the diagonal
        params = ds.DSParams(pi=np.full(k, 1 / 3),
                             theta=np.clip(eye, 1e-12, None))
        ratings = np.array([[0, 0], [2, 2], [1, 1]])
        probs = label_probs(ds.DawidSkeneModel(2, k).z_log_weights(
            ds.DSData(ratings, k), params))
        assert np.allclose(probs[[0, 2, 1], np.arange(3)], 1.0, atol=1e-9)


class TestUnconstrainedInterface:
    def test_round_trip(self):
        rng = make_rng(34)
        j, k = 3, 4
        params = random_params(rng, j, k)
        u = ds_unconstrain(params)
        back, _ = ds_constrain(ds.DawidSkeneModel(j, k), u)
        assert np.allclose(back.pi, params.pi, atol=1e-9)
        assert np.allclose(back.theta, params.theta, atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(35)
        j, k = 3, 3
        data = random_data(rng, 25, j, k)
        model = ds.DawidSkeneModel(j, k)
        h = 1e-6
        for _ in range(5):
            u = rng.normal(size=model.n_dim) * 0.5
            got = model.log_post_grad_u(data, u)[1]
            for i in range(len(u)):
                e = np.zeros(len(u))
                e[i] = h
                pp, ljp = ds_constrain(model, u + e)
                pm, ljm = ds_constrain(model, u - e)
                num = (ds_marginal_log_joint(data, pp) + ljp
                       - ds_marginal_log_joint(data, pm) - ljm) / (2 * h)
                assert got[i] == pytest.approx(num, rel=1e-4, abs=1e-5)

    def test_fused_matches_separate(self):
        rng = make_rng(36)
        model = ds.DawidSkeneModel(4, 3)
        data = random_data(rng, 30, 4, 3)
        for scale in np.linspace(0.4, 6.0, 20):
            u = rng.normal(size=model.n_dim) * scale
            v, _, _ = model.log_post_grad_u(data, u)
            assert v == ds_marginal_log_post_u(model, data, u)


class TestModelHandle:
    def test_names_align_with_flatten(self):
        model = ds.DawidSkeneModel(2, 3)
        names = model.param_names()
        assert len(names) == 3 + 2 * 9
        assert names[0] == "pi[1]"
        assert names[3] == "theta[1,1,1]"
        assert names[-1] == "theta[2,3,3]"
        rng = make_rng(37)
        params = random_params(rng, 2, 3)
        flat = model.flatten(params)
        assert flat[3] == params.theta[0, 0, 0]
        assert flat[-1] == params.theta[1, 2, 2]

    def test_init_rows_are_simplexes(self):
        model = ds.DawidSkeneModel(5, 5)
        p = model.init_params(make_rng(38))
        assert p.pi.sum() == pytest.approx(1.0)
        assert np.allclose(p.theta.sum(axis=2), 1.0)

    @pytest.mark.parametrize("j,k", [(1, 2), (3, 3), (5, 5), (2, 6)])
    def test_init_draws_pi_then_theta(self, j, k):
        """The one stacked prior draw is pi's draw and then theta's, bit
        for bit and generator state included."""
        model = ds.DawidSkeneModel(j, k)
        one, two = make_rng(39, k), make_rng(39, k)
        p = model.init_params(one)
        pi = sample_dirichlet(two, model.alpha[None])[0]
        assert np.array_equal(p.pi, pi)
        assert np.array_equal(p.theta, sample_dirichlet(
            two, np.broadcast_to(model.beta, (j, k, k))))
        assert one.bit_generator.state == two.bit_generator.state
