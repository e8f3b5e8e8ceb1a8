"""Slice sampler and Gibbs sweep tests: exact-distribution oracles on
small cases, mode agreement, and the determinism contract."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
import oracles
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
        # Gamma(3) log kernel; the slice sampler ignores the constant
        logf = lambda x: 2.0 * math.log(x) - x if x > 0 else -np.inf
        x = 2.0
        draws = np.empty(20000)
        for i in range(len(draws)):
            x = slice_sample_1d(logf, x, rng)
            draws[i] = x
        assert draws.mean() == pytest.approx(3.0, abs=0.1)
        assert draws.var() == pytest.approx(3.0, abs=0.3)

    def test_two_mode_target_moments(self):
        # Neal's (2003) acceptance test for doubled intervals rejects a
        # point from which doubling would not rebuild the interval.  Modes
        # at +-1.5, sd 0.5, are close enough for chains to cross often and
        # far enough apart for the test to reject
        rng = make_rng(64)
        logf = lambda x: float(np.logaddexp(-2.0 * (x - 1.5) ** 2,
                                            -2.0 * (x + 1.5) ** 2))
        real, accepts = gb._doubling_accept, []

        def spy(*args):
            accepts.append(real(*args))
            return accepts[-1]
        x = 1.5
        draws = np.empty(20000)
        with mock.patch.object(gb, "_doubling_accept", spy):
            for i in range(len(draws)):
                x = slice_sample_1d(logf, x, rng)
                draws[i] = x
        assert accepts.count(False) > 100
        assert np.count_nonzero(np.diff(np.sign(draws))) > 1000
        # equal-weight N(+-1.5, 0.5^2): mean 0, variance 1.5^2 + 0.5^2
        assert draws.mean() == pytest.approx(0.0, abs=0.1)
        assert draws.var() == pytest.approx(2.5, abs=0.15)

    def test_respects_bounds(self):
        rng = make_rng(42)
        logf = lambda x: 0.0
        x = 0.5
        for _ in range(500):
            x = slice_sample_1d(logf, x, rng, lower=0.0, upper=1.0)
            assert 0.0 < x < 1.0

    @pytest.mark.parametrize(
        "logf,lower,upper,x0,seed,evals,following,stream",
        [pytest.param(*case, stream, id=name + ("-stream" if stream else ""))
         for stream in (False, True) for name, *case in [
             ("unbounded", lambda x: -0.5 * x * x, -np.inf, np.inf, 0.3, 61,
              2283, 0.8424162554399204),
             ("bounded", lambda x: np.log(x) + 2.0 * np.log1p(-x), 0.0, 1.0,
              0.5, 62, 544, 0.2969399916618466)]])
    def test_evaluation_and_generator_contract(self, logf, lower, upper, x0,
                                               seed, evals, following, stream):
        # perfbench divides gibbs-marginal time by these density
        # evaluations, and the slice moves' share of the generator fixes
        # every later draw: both are pinned, and a chain's uniform stream
        # leaves both as the generator itself does once it is closed
        rng = make_rng(seed)
        source = gb._Uniforms(rng) if stream else rng
        calls = []

        def counted(x):
            calls.append(x)
            return logf(x)

        x = x0
        for _ in range(200):
            x = slice_sample_1d(counted, x, source, lower=lower, upper=upper)
        if stream:
            source.close()
        assert len(calls) == evals
        assert rng.random() == following

    def test_uniform_stream_matches_one_at_a_time(self):
        # each take, the generator after close() and a direct draw after
        # it equal a twin generator's one-at-a-time draws, across blocks
        rng, twin = make_rng(63), make_rng(63)
        stream = gb._Uniforms(rng)
        for n in (0, 1, 63, 64, 65, 200):
            assert ([stream.random() for _ in range(n)]
                    == [twin.random() for _ in range(n)])
            stream.close()
            assert rng.bit_generator.state == twin.bit_generator.state
            assert rng.random() == twin.random()
        stream.close()   # a second close hands back nothing more
        assert rng.bit_generator.state == twin.bit_generator.state
        assert stream.random() == twin.random()

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


def check_stick_moves(u, trials, log_rows, prior_m1):
    """Slices sticks `u`, stick c's move evaluating trials[c] and accepting
    trials[c][0].  Each evaluation must read as the log-space target plus
    constrain_simplex's logJ, within 1e-12 relative with the same
    non-finite pattern; one at a p entry at or below the floor takes the
    exact path (one lse_rows call), any other none; the placed sticks and
    p are exact.  Returns the np.log calls of each evaluation."""
    moved = u.copy()
    done = []               # sticks whose move has run
    exact = []              # evaluations that must take the exact path
    logs = []

    def fake_slice(logf, current, *args):
        c = len(done)
        assert current == moved[c]
        for v in trials[c]:
            u2 = moved.copy()
            u2[c] = v
            want_p, want_lj, _ = tr.constrain_simplex(u2)
            exact.append(want_p.min() <= gb._P_FLOOR)
            before = log.call_count
            got = logf(v)
            logs.append(log.call_count - before)
            assert_agrees(got, oracles.ds_pi_target_log_space(
                log_rows, prior_m1, np.log(want_p)) + want_lj)
            assert lse.call_count == sum(exact)
        done.append(c)
        moved[c] = trials[c][0]
        return trials[c][0]

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"), \
            mock.patch.object(gb, "slice_sample_1d", fake_slice), \
            mock.patch.object(gb, "lse_rows", wraps=gb.lse_rows) as lse, \
            mock.patch.object(np, "log", wraps=np.log) as log:
        u_out, p_out = gb._slice_simplex_coords(u, None, log_rows, prior_m1)
        assert len(done) == len(trials)
        # placing each accepted point evaluates nothing
        assert lse.call_count == sum(exact)
        assert np.array_equal(u_out, moved)
        assert np.array_equal(p_out, tr.constrain_simplex(moved)[0])
    return logs


def many_columns():
    """Sticks, trial points, log rows and a prior at 5000 columns, where
    the product of a column underflows though its log-sum does not."""
    rng = make_rng(2024, 5000)
    log_rows = rng.normal(0.0, 3.0, size=(4, 5000))
    u = rng.uniform(-1.0, 1.0, size=3)
    col = tr.constrain_simplex(u)[0] @ np.exp(log_rows - log_rows.max(0))
    assert np.multiply.reduce(col) == 0.0
    trials = [[v + d for d in (0.002, 0.0, -0.003, 0.5)] for v in u]
    return u, trials, log_rows, rng.uniform(0.0, 2.0, size=4)


def tiny_entries():
    """Sticks, trial points, log rows and a prior where columns 0 and 1
    hold stick 0's entry alone: at the trial points z = e^-360 and e^-400,
    above the floor, so are those columns, and their product is
    subnormal or 0."""
    log_rows = np.array([[0.0, 0.0, -800.0], [-800.0, -800.0, 0.0],
                         [-800.0, -800.0, 0.0]])
    off = np.log(2.0)
    trials = [[0.0, off - 360.0, off - 400.0, 0.5], [0.0, 0.3]]
    return np.zeros(2), trials, log_rows, np.ones(3)


class TestSimplexSticks:
    @settings(max_examples=300)
    @given(stick_moves())
    def test_incremental_sticks_match_constrain_simplex(self, case):
        # at +-50 the sticks saturate: z rounds to 1, the remaining stick
        # to 0, and log p and logJ are -inf
        u, trials = case
        km1 = len(u)
        rng = make_rng(2024, km1)
        check_stick_moves(u, trials, rng.normal(0.0, 3.0, size=(km1 + 1, 4)),
                          rng.uniform(0.0, 2.0, size=km1 + 1))

    @pytest.mark.parametrize("build", [many_columns, tiny_entries],
                             ids=["5000-columns", "tiny-entries"])
    def test_incremental_sticks_cached_at_extremes(self, build):
        # every evaluation takes the cached path (one np.log call, no
        # lse_rows) and reads as the log-space target
        logs = check_stick_moves(*build())
        assert logs == [1] * len(logs)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 26), st.data())
    def test_stacked_stick_states_match_one_row(self, km1, r, data):
        # a row sliced from its stick state in a stack reads the same
        # densities and ends at the same sticks and simplex as from its
        # own set-up, bit for bit.  Near |u| = 40 a z rounds to 1, at -750
        # to 0, and log z + log(1 - z) reads -inf
        u = np.array(data.draw(st.lists(
            st.lists(st.floats(-40, 40) | st.sampled_from([-750.0, 750.0]),
                     min_size=km1, max_size=km1), min_size=r, max_size=r)))
        rng = make_rng(2024, km1, r)
        log_rows = rng.normal(0.0, 3.0, size=(km1 + 1, 3))
        prior_m1 = rng.uniform(0.0, 2.0, size=km1 + 1)
        with np.errstate(divide="ignore", over="ignore"):
            stack = list(gb._stick_states(u))
        for row, sticks in zip(u, stack):
            assert (stick_readings(row, log_rows, prior_m1, None)
                    == stick_readings(row, log_rows, prior_m1, sticks))


def stick_readings(u, log_rows, prior_m1, sticks):
    """The bytes of the densities `_slice_simplex_coords` reads from stick
    state `sticks` (None: its own set-up) at each stick's current point
    and two trial points, accepting a point 0.25 above the current one,
    and of the sticks and simplex it returns."""
    reads = []

    def fake_slice(logf, current, *args):
        reads.extend(logf(current + d) for d in (0.0, 0.5, -2.0))
        return current + 0.25

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"), \
            mock.patch.object(gb, "slice_sample_1d", fake_slice):
        u_out, p_out = gb._slice_simplex_coords(u, None, log_rows, prior_m1,
                                                sticks)
    return np.array(reads).tobytes(), u_out.tobytes(), p_out.tobytes()


def stick_densities(u, log_rows=None, prior_m1=None, spy=lambda: 0):
    """The densities `_slice_simplex_coords` reads at sticks `u`, one from
    each stick's move (each move evaluates its current point and stays),
    as (density, calls of `spy` during the evaluation)."""
    out = []

    def fake_slice(logf, current, *args):
        before = spy()
        out.append((logf(current), spy() - before))
        return current

    with mock.patch.object(gb, "slice_sample_1d", fake_slice):
        gb._slice_simplex_coords(u, None, log_rows, prior_m1)
    return out


def stick_points(rng, km1):
    """Stick vectors of a (km1 + 1)-simplex: ordinary ones, ones up to
    +-50 whose sticks saturate (a remainder rounds to 0, so p has exact
    zeros), and ones with a stick at +-700 or beyond, where a p entry
    falls to about 1e-304 or to 0."""
    yield from rng.uniform(-3.0, 3.0, size=(20, km1))
    yield from rng.uniform(-50.0, 50.0, size=(10, km1))
    extreme = [-1000.0, -745.0, -720.0, -700.0, 700.0, 720.0, 745.0]
    for _ in range(10):
        u = rng.uniform(-3.0, 3.0, size=km1)
        u[rng.integers(km1)] = rng.choice(extreme)
        yield u


def simplex_at(u):
    p = tr.constrain_simplex(u)[0]
    return np.log(p), p


def sticks_log_space(u, target_log_space):
    """A log-space simplex target at the simplex of sticks `u`, plus the
    stick transform's logJ: the density that a stick move reads."""
    p, log_j, _ = tr.constrain_simplex(u)
    return target_log_space(np.log(p)) + log_j


def confusion_row_rows(others, col_rest, y, k):
    """The (K, I) log rows whose simplex target is one confusion row's
    likelihood, built as `_DawidSkeneGibbs` builds them: `others` with each
    item's entry y set to logaddexp(others, col_rest)."""
    onehot = np.arange(k)[:, None] == y
    return np.where(onehot, np.logaddexp(others, col_rest), others)


def assert_agrees(got, want):
    """Finite values within 1e-12 relative; otherwise the same value."""
    if np.isfinite(want):
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)
    else:
        assert np.array_equal(got, want, equal_nan=True), (got, want)


@pytest.fixture
def lse_spy():
    """Counts calls of the log-space forms (gibbs.lse_rows and
    np.logaddexp), so a test can tell that a cached path ran."""
    with mock.patch.object(gb, "lse_rows", wraps=gb.lse_rows) as lse, \
            mock.patch.object(np, "logaddexp", wraps=np.logaddexp) as lae:
        yield lambda: lse.call_count + lae.call_count


big = st.floats(-1e300, 1e300)


@st.composite
def mean_target_states(draw):
    """A marginal mixture state and a trial mean as extreme as finite
    values go: data and means out to +-1e300, sigma from e^-745 to e^709
    and weights with exact zeros; (x, mu, sigma, pi, kk, trial)."""
    k = draw(st.integers(2, 4))
    x = draw(st.lists(big, min_size=1, max_size=6))
    mu = draw(st.lists(big, min_size=k, max_size=k))
    sigma = math.exp(draw(st.floats(-745.0, 709.0)))
    w = np.array(draw(st.lists(st.sampled_from([0.0, 1e-300])
                               | st.floats(0.0, 1.0), min_size=k, max_size=k)))
    assume(sigma > 0.0 and w.sum() > 0.0)
    return (np.array(x), np.array(mu), sigma, w / w.sum(),
            draw(st.integers(0, k - 1)), draw(big))


def mu_prior_off():
    """Reads the mean target's prior as 0, so the target is its
    likelihood alone."""
    return mock.patch.object(gb, "_mu_log_prior", lambda m, truncates: 0.0)


class TestCachedTargets:
    """Each marginal slice target caches what its coordinate leaves fixed;
    it must read as the log-space targets in tests/oracles.py, at
    ordinary points, at saturated sticks and at extreme sigma."""

    @pytest.fixture(scope="class")
    def mix(self):
        data, _ = gen_dataset(get_scenario("three-comp-4"), 1, 2024)
        rng = make_rng(2024, 7)
        states = []
        for sigma in [*np.exp(rng.normal(size=4)), 1e-200, 1e-5, 1e5, 1e200]:
            mu = np.sort(rng.normal(0.0, 5.0, size=3))
            states.append((mu, float(sigma)))
        return data.x, states

    @pytest.fixture(scope="class")
    def ds_case(self):
        scenario = get_scenario("ds")
        data, _ = gen_dataset(scenario, 1, 2024)
        return data, scenario.model()

    @staticmethod
    def loglik_rows(x, mu, sigma):
        z = (x - mu[:, None]) / sigma
        return -np.log(sigma) - 0.5 * oracles.LOG_2PI - 0.5 * z * z

    def test_mixture_pi(self, mix, lse_spy):
        x, states = mix
        rng = make_rng(2024, 8)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for mu, sigma in states:
                ll = self.loglik_rows(x, mu, sigma)
                for i, u in enumerate(stick_points(rng, 2)):
                    want = sticks_log_space(
                        u, lambda log_p: oracles.mix_pi_target_log_space(
                            ll, log_p))
                    for got, calls in stick_densities(u, ll, spy=lse_spy):
                        if i < 20 and 1e-5 <= sigma <= 1e5:
                            assert calls == 0     # the cached path ran
                        assert_agrees(got, want)

    @staticmethod
    def mu_lik(x, sigma, log_pi, m_mat, kk):
        """`_mu_target`'s likelihood: its target, to be called under
        `mu_prior_off`."""
        return gb._mu_target(x, sigma, log_pi[kk], m_mat, kk)[0]

    def test_mixture_mu(self, mix):
        x, states = mix
        rng = make_rng(2024, 9)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"), \
                mu_prior_off():
            pis = [rng.dirichlet(np.ones(3)) for _ in range(3)]
            pis.append(simplex_at(np.array([40.0, -3.0]))[1])   # (1, 0, 0)
            for (mu, sigma), pi in zip(states, pis * 2):
                log_pi = np.log(pi)
                m_mat = self.loglik_rows(x, mu, sigma) + log_pi[:, None]
                for kk in range(3):
                    lik = self.mu_lik(x, sigma, log_pi, m_mat, kk)
                    trials = [*rng.normal(0.0, 10.0, size=10),
                              -1e300, -1e160, -1e10, 1e10, 1e160, 1e300]
                    for m in trials:
                        got = lik(m)   # writes row kk of m_mat at m
                        z = (x - m) / sigma
                        want = m_mat.copy()
                        want[kk] = (log_pi[kk] - np.log(sigma)
                                    - 0.5 * oracles.LOG_2PI - 0.5 * z * z)
                        assert np.array_equal(m_mat, want)
                        assert_agrees(got, oracles.mix_mu_lik_log_space(want))

    @settings(max_examples=500)
    @given(mean_target_states())
    def test_mixture_mu_non_finite_as_log_space(self, case):
        # Why the mean target has no log-space fallback: with finite data,
        # means and sigma, every entry of its rows is finite or -inf, so
        # its total is not finite exactly where sum(lse_rows(m)) is not.
        # (At the sum's overflow threshold the two summation orders may
        # round apart, to -1.8e308 and -inf: a last-bits difference.)
        x, mu, sigma, pi, kk, m = case
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"), \
                mu_prior_off():
            log_pi = np.log(pi)
            m_mat = self.loglik_rows(x, mu, sigma) + log_pi[:, None]
            got = self.mu_lik(x, sigma, log_pi, m_mat, kk)(m)
            want = float(np.add.reduce(gb.lse_rows(m_mat)))
        if not (math.isfinite(got) and math.isfinite(want)):
            assert got == want

    def test_mixture_mu_uses_the_cache(self, mix, lse_spy):
        x, states = mix
        mu, sigma = states[0]
        log_pi = np.full(3, np.log(1.0 / 3.0))
        m_mat = self.loglik_rows(x, mu, sigma) + log_pi[:, None]
        lik = self.mu_lik(x, sigma, log_pi, m_mat, 1)
        before = lse_spy()
        with mu_prior_off():
            lik(mu[1])
        assert lse_spy() == before + 1      # one logaddexp, no lse_rows

    def test_mixture_sigma(self, mix, lse_spy):
        x, states = mix
        rng = make_rng(2024, 10)
        with np.errstate(divide="ignore", over="ignore"):
            pis = [rng.dirichlet(np.ones(3)) for _ in range(4)]
            pis += [simplex_at(np.array([40.0, -3.0]))[1],    # (1, 0, 0)
                    simplex_at(np.array([-720.0, 1.0]))[1]]   # p[0] = 0
        extreme = [-800.0, -400.0, -356.0, -355.5, -355.0, -354.5, -300.0,
                   -100.0, -20.0, 20.0, 100.0, 300.0, 355.0, 400.0, 800.0]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for (mu, _), pi in zip(states, pis + pis[:2]):
                target = gb._log_sigma_target(x, mu, pi)
                for i, ls in enumerate([*rng.normal(size=10), *extreme]):
                    before = lse_spy()
                    got = target(ls)
                    if i < 10 and pi.min() > 1e-3:
                        assert lse_spy() == before
                    assert_agrees(got, oracles.mix_log_sigma_target_log_space(
                        x, mu, pi, ls))

    def test_mixture_sigma_overflow_edge(self):
        # one far point, whose (x - mu)^2 / 2s^2 overflows in both forms
        # near log s = -348.3: the totals near -1e308 must agree, and the
        # infinities past them
        x, mu, pi = np.array([0.0, 1e3]), np.array([0.0, 1.0, 2.0]), \
            np.array([0.2, 0.3, 0.5])
        target = gb._log_sigma_target(x, mu, pi)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for ls in np.linspace(-350.0, -346.0, 401):
                assert_agrees(target(ls),
                              oracles.mix_log_sigma_target_log_space(
                                  x, mu, pi, ls))

    @pytest.mark.parametrize("u", [[20.0, -700.0], [30.0, -700.0],
                                   [35.0, -708.0]])
    def test_subnormal_weight(self, u):
        # p[1] is subnormal and leads every column, and p[0] = 1 times
        # its subnormal weight exp(row 0 - row 1) is of the same size: a
        # direct sum of the two would lose digits
        n = 80
        lead = np.linspace(-760.0, -700.0, n)
        log_rows = np.stack([lead, np.zeros(n), np.full(n, -1e4)])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            p = simplex_at(np.array(u))[1]
            assert 0.0 < p[1] < 2.3e-308
            want = sticks_log_space(
                u, lambda log_p: oracles.mix_pi_target_log_space(log_rows,
                                                                 log_p))
            for got, _ in stick_densities(u, log_rows):
                assert_agrees(got, want)
            y, beta_m1 = np.ones(n, dtype=int), np.array([2.0, 1.0, 1.0])
            want = sticks_log_space(
                u, lambda log_p: oracles.ds_theta_row_target_log_space(
                    lead, np.zeros(n), y, beta_m1, log_p))
            rows = confusion_row_rows(lead, np.zeros(n), y, 3)
            for got, _ in stick_densities(u, rows, beta_m1):
                assert_agrees(got, want)
            # x near mu[1]; exp(-(h_0 - h_1) / s^2) is subnormal near
            # log s = -3.35
            x, mu = np.linspace(0.0, 0.4, n), np.array([-1.0, 0.0, 50.0])
            target = gb._log_sigma_target(x, mu, p)
            for ls in np.linspace(-3.6, -3.0, 13):
                assert_agrees(target(ls),
                              oracles.mix_log_sigma_target_log_space(
                                  x, mu, p, ls))

    def test_ds_pi(self, ds_case, lse_spy):
        data, model = ds_case
        rng = make_rng(2024, 11)
        k = model.k
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for t in range(6):
                theta = rng.dirichlet(np.ones(k), size=(model.j, k))
                if t == 5:      # a confusion entry of exactly 0
                    theta[0, 0] = simplex_at(np.full(k - 1, 40.0))[1]
                c = ds._item_category_loglik(data, np.log(theta))
                for i, u in enumerate(stick_points(rng, k - 1)):
                    want = sticks_log_space(
                        u, lambda log_p: oracles.ds_pi_target_log_space(
                            c, model.alpha_m1, log_p))
                    for got, calls in stick_densities(u, c, model.alpha_m1,
                                                      lse_spy):
                        if i < 20 and t < 5:
                            assert calls == 0
                        assert_agrees(got, want)

    def test_ds_theta_row(self, ds_case, lse_spy):
        data, model = ds_case
        rng = make_rng(2024, 12)
        k = model.k
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for t in range(6):
                pi = rng.dirichlet(np.full(k, 3.0))
                theta = rng.dirichlet(np.ones(k), size=(model.j, k))
                if t == 5:      # a category of prevalence exactly 0
                    pi = simplex_at(np.full(k - 1, 40.0))[1]
                c = ds._item_category_loglik(data, np.log(theta))
                base = np.log(pi)[:, None] + c
                jj, kk = rng.integers(model.j), rng.integers(k)
                y = data.ratings[:, jj]
                col_wo_row = c[kk] - np.log(theta[jj, kk])[y]
                others = gb._lse_other_rows(base, kk)
                col_rest = np.log(pi[kk]) + col_wo_row
                rows = confusion_row_rows(others, col_rest, y, k)
                assert np.array_equal(   # the one-hot the sweep reads
                    data.rating_onehot[jj * k:(jj + 1) * k],
                    np.arange(k)[:, None] == y)
                for i, u in enumerate(stick_points(rng, k - 1)):
                    want = sticks_log_space(
                        u, lambda log_p: oracles.ds_theta_row_target_log_space(
                            others, col_rest, y, model.beta_m1[kk], log_p))
                    for got, calls in stick_densities(
                            u, rows, model.beta_m1[kk], lse_spy):
                        if i < 20:
                            assert calls == 0
                        assert_agrees(got, want)

    def test_other_rows_lse(self):
        rng = make_rng(2024, 13)
        m = rng.normal(size=(4, 50))
        m[2, :5] = -np.inf
        m[:, 7] = -np.inf
        kept = m.copy()
        for kk in range(4):
            rest = np.delete(m, kk, axis=0)
            with np.errstate(divide="ignore"):
                got = gb._lse_other_rows(m, kk)
                want = gb.lse_rows(np.concatenate(
                    [rest, np.full((1, 50), -np.inf)]))
            assert np.array_equal(got, want)
            assert np.array_equal(m, kept)


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
        model = ds.DawidSkeneModel(2, 3)
        beta = model.beta
        draws = np.array([ds.DSParams(update_theta_conjugate(
            data, latent, model.prior_rows, rng)).theta for _ in range(4000)])
        # rows k=1,2 had zero counts, so their mean is the prior mean
        want = beta[1] / beta[1].sum()
        assert np.allclose(draws[:, :, 1].mean(axis=(0, 1)), want, atol=0.02)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_stacked_draw_matches_two_calls(self, k):
        """pi and every confusion row from one stacked draw are, bit for
        bit and generator state included, pi's draw and then theta's."""
        make = np.random.default_rng(200 + k)
        for t in range(30):
            j, n = int(make.integers(1, 6)), int(make.integers(1, 60))
            data = ds.DSData(make.integers(0, k, size=(n, j)), k)
            model = ds.DawidSkeneModel(j, k)
            latent = make.integers(0, k, size=n)
            one, two = make_rng(k, t), make_rng(k, t)
            got = ds.DSParams(update_theta_conjugate(data, latent,
                                                     model.prior_rows, one))
            want_pi, want_theta = oracles.conjugate_pi_theta_two_calls(
                data, latent, model.alpha, model.beta, two)
            assert np.array_equal(got.pi, want_pi)
            assert np.array_equal(got.theta, want_theta)
            assert one.bit_generator.state == two.bit_generator.state


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
        params = oracles.ds_params(np.full(3, 1 / 3), eye)
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

    @pytest.mark.parametrize("method", ["gibbs-full", "gibbs-marginal"])
    def test_sweeps_keep_one_stack(self, method):
        """Each sweep leaves a DSParams whose pi and theta are views of its
        rows; the marginal arm's one stick stack places those rows bit for
        bit, row by row, as constrain_simplex does."""
        rng = make_rng(62)
        model = ds.DawidSkeneModel(3, 3)
        data = ds.DSData(rng.integers(0, 3, size=(20, 3)), 3)
        state = gb._DawidSkeneGibbs(model, data, rng, model.init_params(rng),
                                    method)
        for _ in range(3):
            with np.errstate(over="ignore", divide="ignore"):   # as run_chain
                state.sweep()
            rows = state.params.rows
            assert rows.shape == (10, 3)
            assert np.shares_memory(state.params.pi, rows)
            assert np.shares_memory(state.params.theta, rows)
            if method == "gibbs-marginal":
                assert state.u_rows.shape == (10, 2)
                for u_row, p_row in zip(state.u_rows, rows):
                    assert np.array_equal(tr.constrain_simplex(u_row)[0],
                                          p_row)

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
