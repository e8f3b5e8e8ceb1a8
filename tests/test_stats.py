"""Density, sampler and RNG-contract tests against scipy references."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import logsumexp

from margmcmc.stats import (check_simplex, lse_rows, make_rng,
                            sample_categorical_rows, sample_dirichlet)
from oracles import (log_dirichlet_pdf, log_lognormal_pdf, log_normal_pdf,
                     log_truncated_normal_pdf, lse_rows_two_pass)

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
            with np.errstate(invalid="ignore"):
                got = lse_rows(case)
                want = lse_rows_two_pass(case)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(case, kept)

    def test_rows_with_neg_inf_row(self):
        m = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
        got = lse_rows(m.T)
        assert got[1] == -np.inf and np.isfinite(got[0])


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
        p = np.array([0.6, 0.3, 0.1])
        draws = sample_categorical_rows(rng, np.tile(p[:, None], (1, 30000)))
        counts = np.bincount(draws, minlength=3)
        n = len(draws)
        stat = ((counts - n * p) ** 2 / (n * p)).sum()
        assert stat < sps.chi2.ppf(0.999, df=2)

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
