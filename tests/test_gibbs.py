"""Slice sampler and Gibbs sweep tests: exact-distribution oracles on
small cases, mode agreement, and the determinism contract."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from margmcmc import dawid_skene as ds
from margmcmc import gibbs as gb
from margmcmc import mixture as mx
from margmcmc import transforms as tr
from margmcmc.gibbs import (slice_sample_1d, update_pi_conjugate,
                            update_theta_conjugate, update_z_block)
from margmcmc.harness import run_chain
from margmcmc.simulate import gen_dataset, get_scenario
from margmcmc.stats import make_rng
from oracles import by_name, label_probs


class TestSliceSampler:
    def test_standard_normal_ks(self):
        rng = make_rng(40)
        logf = lambda x: -0.5 * x * x
        x = 0.0
        draws = np.empty(20000)
        for i in range(len(draws)):
            x = slice_sample_1d(logf, x, rng)
            draws[i] = x
        # thin to reduce autocorrelation before the KS test
        res = sps.kstest(draws[::10], sps.norm.cdf)
        assert res.pvalue > 1e-6
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.05

    def test_skewed_target_moments(self):
        rng = make_rng(41)
        dist = sps.gamma(3.0)
        logf = lambda x: dist.logpdf(x) if x > 0 else -np.inf
        x = 2.0
        draws = np.empty(20000)
        for i in range(len(draws)):
            x = slice_sample_1d(logf, x, rng)
            draws[i] = x
        assert draws.mean() == pytest.approx(3.0, abs=0.1)
        assert draws.var() == pytest.approx(3.0, abs=0.3)

    def test_respects_bounds(self):
        rng = make_rng(42)
        logf = lambda x: 0.0
        x = 0.5
        for _ in range(500):
            x = slice_sample_1d(logf, x, rng, lower=0.0, upper=1.0)
            assert 0.0 < x < 1.0

    @pytest.mark.parametrize("logf,lower,upper,x0,seed,evals,following", [
        (lambda x: -0.5 * x * x, -np.inf, np.inf, 0.3, 61, 2283,
         0.8424162554399204),
        (lambda x: np.log(x) + 2.0 * np.log1p(-x), 0.0, 1.0, 0.5, 62, 544,
         0.2969399916618466),
    ], ids=["unbounded", "bounded"])
    def test_evaluation_and_generator_contract(self, logf, lower, upper, x0,
                                               seed, evals, following):
        # perfbench divides gibbs-marginal time by these density
        # evaluations, and the slice moves' share of the generator fixes
        # every later draw: both are pinned
        rng = make_rng(seed)
        calls = []

        def counted(x):
            calls.append(x)
            return logf(x)

        x = x0
        for _ in range(200):
            x = slice_sample_1d(counted, x, rng, lower=lower, upper=upper)
        assert len(calls) == evals
        assert rng.random() == following

    def test_deterministic(self):
        logf = lambda x: -0.5 * x * x

        def chain(seed):
            rng = make_rng(seed)
            x = 0.3
            return [x := slice_sample_1d(logf, x, rng)
                    for _ in range(50)]

        assert chain(7) == chain(7)
        assert chain(7) != chain(8)


stick = st.floats(-50, 50, allow_nan=False)


@st.composite
def stick_moves(draw):
    """Sticks of a K-simplex, K = 2..10, and per stick the points a slice
    move evaluates; the first point is the one it accepts."""
    km1 = draw(st.integers(1, 9))
    u = draw(st.lists(stick, min_size=km1, max_size=km1))
    trials = draw(st.lists(st.lists(stick, min_size=1, max_size=4),
                           min_size=km1, max_size=km1))
    return np.array(u), trials


class TestSimplexSticks:
    @settings(max_examples=300)
    @given(stick_moves())
    def test_incremental_sticks_match_constrain_simplex(self, case):
        # at +-50 the sticks saturate: z rounds to 1, the remaining stick
        # to 0, and log p and logJ are -inf.  From K - 1 = 8 sticks on,
        # numpy's pairwise sum of the logJ terms would differ from
        # constrain_simplex's left-to-right one.
        u, trials = case
        moved = u.copy()
        seen = []               # log p as each target call received it
        done = []               # sticks whose move has run

        def target(log_p):
            seen.append(log_p.copy())
            return 0.0          # so the slice density is logJ alone

        def fake_slice(logf, current, *args):
            c = len(done)
            assert current == moved[c]
            for v in trials[c]:
                n_seen = len(seen)
                lj = logf(v)
                assert len(seen) == n_seen + 1
                u2 = moved.copy()
                u2[c] = v
                want_p, want_lj, _ = tr.constrain_simplex(u2)
                assert np.array_equal(seen[-1], np.log(want_p))
                assert np.array_equal(lj, want_lj)
            done.append(c)
            moved[c] = trials[c][0]
            return trials[c][0]

        with np.errstate(divide="ignore", over="ignore"), \
                mock.patch.object(gb, "slice_sample_1d", fake_slice):
            u_out, p_out = gb._slice_simplex_coords(u, target, None)
            assert len(done) == len(trials)
            # placing each accepted point calls the target no more
            assert len(seen) == sum(map(len, trials))
            assert np.array_equal(u_out, moved)
            assert np.array_equal(p_out, tr.constrain_simplex(moved)[0])


class TestConjugateUpdates:
    def test_zero_counts_is_prior(self):
        rng = make_rng(43)
        alpha = np.array([2.0, 3.0, 5.0])
        draws = np.array([update_pi_conjugate(np.zeros(3), alpha, rng)
                          for _ in range(20000)])
        want = alpha / alpha.sum()
        se = np.sqrt(want * (1 - want) / (alpha.sum() + 1) / len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - want) < 5 * se)

    def test_huge_counts_concentrate(self):
        rng = make_rng(44)
        counts = np.array([10_000_000.0, 3_000_000.0])
        for _ in range(5):
            p = update_pi_conjugate(counts, np.ones(2), rng)
            assert abs(p[0] - 10 / 13) < 0.001

    def test_posterior_mean_formula(self):
        rng = make_rng(45)
        counts = np.array([12.0, 3.0, 7.0])
        alpha = np.array([1.0, 2.0, 0.5])
        n = 100_000
        draws = np.array([update_pi_conjugate(counts, alpha, rng)
                          for _ in range(n)])
        post = counts + alpha
        want = post / post.sum()
        se = np.sqrt(want * (1 - want) / (post.sum() + 1) / n)
        assert np.all(np.abs(draws.mean(axis=0) - want) < 4 * se)

    def test_theta_zero_latent_counts_prior_mean(self):
        rng = make_rng(46)
        # all items truly category 0: rows for other categories see no data
        data = ds.DSData(np.zeros((30, 2), dtype=int), 3)
        latent = np.zeros(30, dtype=int)
        beta = ds.ds_beta_matrix(3)
        draws = np.array([update_theta_conjugate(data, latent, beta, rng)
                          for _ in range(4000)])
        # rows k=1,2 had zero counts, so their mean is the prior mean
        want = beta[1] / beta[1].sum()
        assert np.allclose(draws[:, :, 1].mean(axis=(0, 1)), want, atol=0.02)


class TestLatentBlock:
    def test_degenerate_pi_pins_labels(self):
        model = mx.MixtureModel(2)
        data = mx.MixtureData(np.zeros(10))
        params = mx.MixtureParams(mu=np.array([-1.0, 1.0]), sigma=1.0,
                                  pi=np.array([1e-300, 1.0 - 1e-300]))
        z = update_z_block(model, data, params, make_rng(47))
        assert np.all(z == 1)

    def test_empirical_matches_conditional(self):
        rng = make_rng(48)
        model = mx.MixtureModel(2)
        data = mx.MixtureData(np.array([-1.2, 0.1, 0.8, 2.0, -0.4]))
        params = mx.MixtureParams(mu=np.array([-1.0, 1.0]), sigma=1.5,
                                  pi=np.array([0.6, 0.4]))
        want = label_probs(model.z_log_weights(data, params))[1]
        n = 30000
        hits = np.zeros(5)
        for _ in range(n):
            hits += update_z_block(model, data, params, rng)
        freq = hits / n
        se = np.sqrt(want * (1 - want) / n)
        assert np.all(np.abs(freq - want) < 4 * se)

    def test_ds_identity_raters_unanimous(self):
        model = ds.DawidSkeneModel(2, 3)
        eye = np.clip(np.broadcast_to(np.eye(3), (2, 3, 3)).copy(), 1e-12, None)
        params = ds.DSParams(pi=np.full(3, 1 / 3), theta=eye)
        ratings = np.array([[2, 2], [0, 0], [1, 1], [2, 2]])
        z = update_z_block(model, ds.DSData(ratings, 3), params, make_rng(49))
        assert np.array_equal(z, [2, 0, 1, 2])


def run_mode(method, data, model, seed, iterations=1200, warmup=600):
    return run_chain(model, data, method, iterations, warmup,
                     make_rng(seed, 1))


@pytest.fixture(scope="module")
def mixdata():
    return gen_dataset(get_scenario("two-comp-1"), 1, 0)[0]


class TestMixtureGibbs:
    def test_recovery_full_conjugate(self, mixdata):
        chain = run_mode("gibbs-full", mixdata, mx.MixtureModel(2), 50)
        assert by_name(chain, "mu[1]").mean() == pytest.approx(-5.0, abs=0.5)
        assert by_name(chain, "mu[2]").mean() == pytest.approx(5.0, abs=0.5)

    def test_ordering_preserved_every_draw(self, mixdata):
        chain = run_mode("gibbs-full-restricted", mixdata,
                         mx.MixtureModel(2), 51, iterations=600, warmup=300)
        mu = np.column_stack([by_name(chain, "mu[1]"),
                              by_name(chain, "mu[2]")])
        assert np.all(np.diff(mu, axis=1) > 0)

    def test_modes_agree(self, mixdata):
        model = mx.MixtureModel(2)
        means = {}
        for mode in ("gibbs-full", "gibbs-full-restricted", "gibbs-marginal"):
            chain = run_mode(mode, mixdata, model, 52)
            means[mode] = by_name(chain, "mu[1]").mean()
        vals = list(means.values())
        assert max(vals) - min(vals) < 0.3

    def test_deterministic(self, mixdata):
        model = mx.MixtureModel(2)
        a = run_mode("gibbs-full", mixdata, model, 53, 200, 100)
        b = run_mode("gibbs-full", mixdata, model, 53, 200, 100)
        assert np.array_equal(a.draws, b.draws)

    def test_huge_sigma_start_stays_finite(self):
        # sigma**2 overflows a Python float here; the sweep must carry on,
        # and the draws are pinned because the overflow path is where a
        # change of number type would show
        data = gen_dataset(get_scenario("three-comp-4"), 1, 0)[0]
        init = mx.MixtureParams(mu=np.array([-5.0, 0.0, 5.0]), sigma=1.3e164,
                                pi=np.full(3, 1.0 / 3.0))
        state = gb._MixtureGibbs(mx.MixtureModel(3), data, make_rng(59, 1),
                                 init, "gibbs-full")
        draws = np.empty((50, 7))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for it in range(50):
                state.sweep()
                draws[it] = state.model.flatten(state.params)
        assert np.all(np.isfinite(draws))
        assert hashlib.sha256(draws).hexdigest() == (
            "637f8282651479e6804c7b2a9e4702107f8bdba07a2ee3fe3d35e9388ecd9f6a")


class TestDawidSkeneGibbs:
    def test_full_conjugate_recovers_accuracy(self):
        data, _ = gen_dataset(get_scenario("ds"), 1, 0)
        model = ds.DawidSkeneModel(5, 5)
        chain = run_mode("gibbs-full", data, model, 58)
        diags = [by_name(chain, f"theta[{j},{k},{k}]").mean()
                 for j in range(1, 6) for k in range(1, 6)]
        assert np.mean(diags) == pytest.approx(0.7, abs=0.1)

    def test_deterministic(self):
        data, _ = gen_dataset(get_scenario("ds"), 1, 0)
        model = ds.DawidSkeneModel(5, 5)
        a = run_mode("gibbs-full", data, model, 59, 100, 50)
        b = run_mode("gibbs-full", data, model, 59, 100, 50)
        assert np.array_equal(a.draws, b.draws)

    def test_rejects_full_restricted(self):
        data, _ = gen_dataset(get_scenario("ds"), 1, 0)
        with pytest.raises(ValueError, match="full-restricted"):
            run_mode("gibbs-full-restricted", data, ds.DawidSkeneModel(5, 5),
                     60, 10, 5)


class TestConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="not an arm of this model"):
            run_mode("nope", None, mx.MixtureModel(2), 61, 10, 5)

    def test_rejects_bad_warmup(self):
        with pytest.raises(ValueError, match="warmup < iterations"):
            run_mode("gibbs-full", None, mx.MixtureModel(2), 61, 10, 10)
