"""Density, sampler and RNG-contract tests against scipy references."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps
from scipy import special
from scipy.special import logsumexp

from margmcmc import cli
from margmcmc import mixture as mx
from margmcmc import simulate as sim
from margmcmc.stats import (LOG_2PI, check_simplex, inv_mills_ratio,
                            log_ndtr, lse_rows, make_rng,
                            sample_categorical_rows, sample_dirichlet)
from oracles import (label_probs, log_dirichlet_pdf, log_lognormal_pdf,
                     log_normal_pdf, log_truncated_normal_pdf,
                     lse_rows_two_pass, sample_categorical_rows_normalised)

finite = st.floats(-50, 50, allow_nan=False)
positive = st.floats(0.01, 50, allow_nan=False)


class TestRngContract:
    def test_same_key_same_stream(self):
        a = make_rng(7, 3).random(100)
        b = make_rng(7, 3).random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = make_rng(7, 0).random(100)
        b = make_rng(7, 1).random(100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(50), make_rng(2).random(50))

    @pytest.mark.parametrize("seed", [0, 42])
    def test_streams_as_the_old_constructors_keyed_them(self, seed):
        # the chain and dataset generators were once built beside
        # make_rng, each reducing a str key to its bytes mod 2^63
        def old(*parts):
            return np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(tuple(map(int, (seed, *parts))))))

        def reduce(key):
            return int.from_bytes(key.encode(), "big") % (1 << 63)

        args = cli.build_parser().parse_args(["run", "--seed", str(seed)])
        keys = [f"{spec.scenario_id}|{spec.method}|{rep}|{chain}"
                for spec in cli.run_specs(args)
                for rep in range(1, spec.replicates + 1)
                for chain in range(spec.chains)]
        assert len(keys) == 765
        # only a key's last 8 bytes count, so the keys share 45 streams
        assert len({reduce(key) for key in keys}) == 45
        for key in keys:
            assert np.array_equal(make_rng(seed, key).random(4),
                                  old(reduce(key)).random(4))
        for scenario in sim.scenario_catalog():
            for rep in range(1, 6):
                assert np.array_equal(
                    make_rng(seed, scenario.id, rep).random(4),
                    old(reduce(scenario.id), rep).random(4))
        assert np.array_equal(make_rng(seed).random(4), old(0).random(4))
        assert np.array_equal(make_rng(seed, 2).random(4), old(2).random(4))


class TestLogDensities:
    @given(finite, finite, positive)
    def test_normal_matches_scipy(self, x, mu, sigma):
        assert log_normal_pdf(x, mu, sigma) == pytest.approx(
            sps.norm.logpdf(x, mu, sigma), rel=1e-10, abs=1e-10)

    def test_normal_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            log_normal_pdf(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            log_normal_pdf(np.nan, 0.0, 1.0)

    @given(finite, finite, positive, finite)
    def test_truncated_normal_matches_scipy(self, x, mu, sigma, lower):
        got = log_truncated_normal_pdf(x, mu, sigma, lower)
        a = (lower - mu) / sigma
        want = sps.truncnorm.logpdf(x, a, np.inf, loc=mu, scale=sigma)
        if x <= lower:
            assert got == -np.inf
        else:
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_truncated_normal_deep_tail_finite(self):
        # renormaliser must use the log tail, not 1 - cdf
        v = log_truncated_normal_pdf(40.5, 0.0, 1.0, 40.0)
        assert np.isfinite(v)

    def test_truncated_reduces_to_normal(self):
        assert log_truncated_normal_pdf(1.2, 0.3, 2.0, -np.inf) == \
            pytest.approx(log_normal_pdf(1.2, 0.3, 2.0))

    @given(positive, finite, positive)
    def test_lognormal_matches_scipy(self, x, mu, sigma):
        assert log_lognormal_pdf(x, mu, sigma) == pytest.approx(
            sps.lognorm.logpdf(x, sigma, scale=np.exp(mu)), rel=1e-9, abs=1e-9)

    def test_lognormal_off_support(self):
        assert log_lognormal_pdf(0.0, 0.0, 1.0) == -np.inf
        assert log_lognormal_pdf(-1.0, 0.0, 1.0) == -np.inf

    def test_dirichlet_matches_scipy(self):
        rng = make_rng(0)
        for _ in range(25):
            alpha = rng.uniform(0.2, 5.0, size=4)
            p = rng.dirichlet(alpha)
            assert log_dirichlet_pdf(p, alpha) == pytest.approx(
                sps.dirichlet.logpdf(p / p.sum(), alpha), rel=1e-8)

    def test_dirichlet_integrates_to_one(self):
        # 2-d Dirichlet reduces to Beta: quadrature over p_1
        from scipy.integrate import quad
        alpha = np.array([2.5, 1.3])
        total, _ = quad(
            lambda p: np.exp(log_dirichlet_pdf(np.array([p, 1 - p]), alpha)),
            0, 1)
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_dirichlet_validates(self):
        with pytest.raises(ValueError):
            log_dirichlet_pdf(np.array([0.5, 0.5]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            log_dirichlet_pdf(np.array([0.5, 0.3, 0.2]), np.array([1.0, 1.0]))


class TestLogNdtr:
    # a dense grid over [-1e3, 40] plus each branch boundary (-1 and
    # -37.5) and its neighbouring floats
    GRID = np.concatenate([
        np.linspace(-1e3, 40.0, 200_001), np.linspace(-40.0, -35.0, 5001),
        np.linspace(-1.5, 1.0, 2501),
        [np.nextafter(b, d) for b in (-1.0, -37.5) for d in (-np.inf, np.inf)],
    ])

    def test_matches_scipy(self):
        x = self.GRID
        got = np.array([log_ndtr(float(v)) for v in x])
        want = special.log_ndtr(x)
        normal = np.abs(want) >= np.finfo(float).tiny
        rel = np.abs(got - want) / np.where(normal, np.abs(want), 1.0)
        # x <= -1: erfc(-x / sqrt 2) and scipy's erfcx route agree to a
        # few ulps of the log
        assert rel[x <= -1].max() <= 2e-15
        # x > -1: both compute log1p(-erfc(x / sqrt 2) / 2); the rounding
        # of x / sqrt 2 moves erfc by about x^2 ulps, and the two erfc
        # implementations differ by that much
        assert rel[(x > -1) & (x <= 6)].max() <= 1e-14
        assert rel[(x > 6) & normal].max() <= 1e-13
        # past x = 37.5 the value is subnormal here and 0 in scipy
        assert np.all(np.abs(got - want)[~normal] <= 1e-300)
        assert np.all(got <= 0.0)

    def test_extremes(self):
        for x, want in [(1e200, 0.0), (np.inf, 0.0), (-1e200, -np.inf),
                        (-np.inf, -np.inf)]:
            assert log_ndtr(x) == want == special.log_ndtr(x)
        assert np.isnan(log_ndtr(np.nan))
        assert log_ndtr(-1e150) == pytest.approx(special.log_ndtr(-1e150),
                                                  rel=2e-15)


class TestInvMillsRatio:
    """phi(a) / Phi(-a), the mixture gradient's truncation term."""

    def test_bit_identical_below_the_series(self):
        a = np.concatenate([np.linspace(-50.0, 37.5, 20_000, endpoint=False),
                            [np.nextafter(37.5, -np.inf)]])
        for v in a.tolist():
            want = np.exp(-0.5 * LOG_2PI - 0.5 * v * v - log_ndtr(-v))
            assert inv_mills_ratio(v, log_ndtr(-v)) == want

    def test_matches_scipy_on_the_series(self):
        # scipy: phi(a) / Phi(-a) = sqrt(2 / pi) / erfcx(a / sqrt 2), its
        # exp(-a^2 / 2) cancelled; erfcx holds about 1e-14 up to 1e20
        a = np.concatenate([[37.5, np.nextafter(37.5, np.inf)],
                            np.linspace(37.5, 40.0, 2501),
                            np.geomspace(40.0, 1e20, 20_001)])
        got = np.array([inv_mills_ratio(v, log_ndtr(-v)) for v in a.tolist()])
        want = np.sqrt(2.0 / np.pi) / special.erfcx(a / np.sqrt(2.0))
        assert np.max(np.abs(got / want - 1.0)) <= 1e-14

    def test_far_tail_is_a(self):
        # from 1e9 on, 1 / a^2 is below half an ulp of 1, and
        # phi(a) / Phi(-a) = a (1 + 1 / a^2 + ...) is a to double precision
        for v in np.geomspace(1e9, 1e300, 301).tolist():
            assert inv_mills_ratio(v, log_ndtr(-v)) == v
        assert np.isnan(inv_mills_ratio(np.nan, log_ndtr(np.nan)))


class TestLogSumExp:
    @given(st.lists(finite, min_size=1, max_size=30), finite)
    def test_shift_invariance(self, values, shift):
        v = np.array(values)[:, None]
        assert lse_rows(v + shift)[0] == pytest.approx(
            lse_rows(v)[0] + shift, rel=1e-12, abs=1e-9)

    def test_extreme_values_no_overflow(self):
        v = np.array([[1000.0], [1000.0]])
        assert lse_rows(v)[0] == pytest.approx(1000.0 + np.log(2.0))

    def test_all_neg_inf(self):
        with np.errstate(divide="ignore"):
            assert lse_rows(np.array([[-np.inf], [-np.inf]]))[0] == -np.inf

    def test_rows_match_scalar(self):
        rng = make_rng(3)
        m = rng.normal(size=(40, 5)) * 100
        want = np.array([logsumexp(row) for row in m])
        assert np.allclose(lse_rows(m.T), want, rtol=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_bit_identical_to_two_pass_and_leaves_input(self, k):
        rng = make_rng(70 + k)
        m = rng.normal(size=(k, 50)) * 30
        with_gap = m.copy()
        with_gap[k // 2] = -np.inf      # a component left out, as ds's base
        non_finite = m.copy()
        non_finite[:, 3] = -np.inf      # an all -inf column: the fallback
        non_finite[0, 7] = np.inf
        for case in (m, with_gap, non_finite):
            kept = case.copy()
            with np.errstate(divide="ignore", invalid="ignore"):
                got = lse_rows(case)
                want = lse_rows_two_pass(case)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(case, kept)

    def test_rows_with_neg_inf_row(self):
        m = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
        with np.errstate(divide="ignore"):
            got = lse_rows(m.T)
        assert got[1] == -np.inf and np.isfinite(got[0])

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_non_finite_columns_match_scipy(self, k):
        # entries -inf (15%), +inf (2%) and nan (2%), and 50 columns all
        # -inf: the same columns read -inf, inf and nan as in scipy; a
        # finite column agrees within 1e-15 of its largest magnitude,
        # the scale of the shift both subtract
        rng = make_rng(90, k)
        m = rng.normal(size=(k, 2000)) * 30
        u = rng.random(m.shape)
        m[u < 0.15] = -np.inf
        m[(u >= 0.15) & (u < 0.17)] = np.inf
        m[(u >= 0.17) & (u < 0.19)] = np.nan
        m[:, :50] = -np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            got = lse_rows(m)
            want = logsumexp(m, axis=0)
        fin = np.isfinite(want)
        assert np.array_equal(got[~fin], want[~fin], equal_nan=True)
        assert {-np.inf, np.inf} <= set(want[~fin]) and np.isnan(want).any()
        scale = np.abs(np.where(np.isfinite(m), m, 0.0)).max(axis=0)
        assert np.all(np.abs(got[fin] - want[fin])
                      <= 1e-15 * np.maximum(scale[fin], np.abs(want[fin])))

    def test_finite_maxima_whose_screen_overflows(self):
        # the maxima are all finite, but any two of the last three sum
        # past 1e308, so lse_rows takes its non-finite path: it must
        # leave every column as it reads alone, bit for bit
        rng = make_rng(92)
        m = rng.normal(size=(3, 6)) * 30
        m[:, 3] = [1.0e308, -1.0e308, -2.0]
        m[:, 4] = [1.5e308, 3.0, 1.5e308]
        m[:, 5] = [-1.7e308, 1.2e308, 1.1e308]
        with np.errstate(over="ignore"):
            assert np.isinf(np.ones(6).dot(m.max(axis=0)))
            alone = np.concatenate([lse_rows(m[:, [i]]) for i in range(6)])
            got = lse_rows(m)
        assert np.isfinite(got).all()
        assert np.array_equal(got.view(np.int64), alone.view(np.int64))

    @pytest.mark.parametrize("neighbour", [-np.inf, np.inf, np.nan])
    def test_finite_columns_ignore_non_finite_neighbours(self, neighbour):
        rng = make_rng(91)
        m = rng.normal(size=(3, 2000)) * 30
        alone = lse_rows(m)
        beside = np.concatenate([m, np.full((3, 1), neighbour)], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            got = lse_rows(beside)
        assert np.array_equal(got[:-1].view(np.int64), alone.view(np.int64))
        assert np.array_equal(got[-1:], [neighbour], equal_nan=True)


class TestSimplexCheck:
    def test_valid_passes(self):
        check_simplex(np.array([0.2, 0.3, 0.5]))

    def test_bad_sum_raises(self):
        with pytest.raises(ValueError):
            check_simplex(np.array([0.5, 0.6]))

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            check_simplex(np.array([-0.1, 1.1]))


class TestPrimitiveSamplers:
    def test_categorical_rows_chi_square(self):
        rng = make_rng(12)
        log_w = np.tile(np.log([6.0, 3.0, 1.0])[:, None], (1, 30000))
        p = label_probs(log_w)[:, 0]
        draws = sample_categorical_rows(rng, log_w)
        counts = np.bincount(draws, minlength=3)
        n = len(draws)
        stat = ((counts - n * p) ** 2 / (n * p)).sum()
        assert stat < sps.chi2.ppf(0.999, df=2)

    def test_categorical_rows_match_normalised_draw(self):
        # 10^6 labels: for each K and weight scale, 10% of entries -inf
        # and 1% of columns all -inf; then pi = (1e-300, 1 - 1e-300)
        make = make_rng(16)
        cases = []
        for k in range(2, 7):
            for scale in (0.1, 1.0, 10.0, 100.0, 300.0):
                log_w = scale * make.normal(size=(k, 39_000))
                log_w[make.random(log_w.shape) < 0.1] = -np.inf
                log_w[:, make.random(log_w.shape[1]) < 0.01] = -np.inf
                cases.append(log_w)
        model = mx.MixtureModel(2)
        params = mx.MixtureParams(mu=np.array([-1.0, 1.0]), sigma=1.0,
                                  pi=np.array([1e-300, 1.0 - 1e-300]))
        cases.append(model.z_log_weights(
            mx.MixtureData(make.normal(0.0, 3.0, size=25_000)), params))
        assert sum(c.shape[1] for c in cases) == 1_000_000
        a, b = make_rng(17), make_rng(17)
        with np.errstate(divide="ignore", invalid="ignore"):
            for log_w in cases:
                assert np.array_equal(sample_categorical_rows(a, log_w),
                                      sample_categorical_rows_normalised(
                                          b, log_w))
        assert a.bit_generator.state == b.bit_generator.state

    def test_dirichlet_moments(self):
        rng = make_rng(14)
        alpha = np.array([2.0, 5.0, 3.0])
        draws = np.array([sample_dirichlet(rng, alpha) for _ in range(20000)])
        want = alpha / alpha.sum()
        se = np.sqrt(want * (1 - want) / (alpha.sum() + 1) / len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - want) < 5 * se)

    def test_dirichlet_strictly_positive(self):
        rng = make_rng(15)
        p = sample_dirichlet(rng, np.array([0.05, 0.05]))
        assert np.all(p > 0) and p.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_dirichlet_one_row_matches_stack(self, k):
        """One row of alpha draws the bits of the stack of that one row,
        and leaves the generator in the same state: alpha log-uniform
        from 0.05 to 1e6, and rows with one entry at 1e-3, whose gamma
        variate underflows to 0 and is floored at 1e-300."""
        make = np.random.default_rng(100 + k)
        for t in range(300):
            alpha = np.exp(make.uniform(np.log(0.05), np.log(1e6), size=k))
            if t % 3 == 0:
                alpha[make.integers(k)] = 1e-3
            one, stack = make_rng(k, t), make_rng(k, t)
            got = sample_dirichlet(one, alpha)
            assert got.shape == (k,)
            assert np.array_equal(got, sample_dirichlet(stack, alpha[None])[0])
            assert one.random() == stack.random()
