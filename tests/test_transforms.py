"""Round-trip, Jacobian and gradient tests for the constraint transforms.

Log-Jacobians are checked against numerical determinants and gradient
pullbacks against central finite differences, so the hand-written
reverse-mode code is pinned to an independent oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margmcmc import transforms as tr
from margmcmc.stats import make_rng
from oracles import unconstrain_ordered, unconstrain_positive

raw_vec = st.lists(st.floats(-6, 6, allow_nan=False), min_size=1, max_size=6)


def numeric_log_jacobian(fn, raw, out_dim, h=1e-6):
    """log |det d(fn)/d(raw)| via central differences on the free coords."""
    raw = np.asarray(raw, dtype=float)
    d = len(raw)
    jac = np.empty((out_dim, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        jac[:, i] = (fn(raw + e) - fn(raw - e)) / (2 * h)
    sign, logdet = np.linalg.slogdet(jac[:out_dim, :])
    return logdet


def numeric_pullback(scalar_fn, raw, h=1e-6):
    raw = np.asarray(raw, dtype=float)
    out = np.empty_like(raw)
    for i in range(len(raw)):
        e = np.zeros(len(raw))
        e[i] = h
        out[i] = (scalar_fn(raw + e) - scalar_fn(raw - e)) / (2 * h)
    return out


class TestOrdered:
    @given(raw_vec)
    def test_output_strictly_increasing(self, raw):
        mu, _ = tr.constrain_ordered(np.array(raw))
        assert np.all(np.diff(mu) > 0)

    @given(raw_vec)
    def test_round_trip(self, raw):
        raw = np.array(raw)
        mu, _ = tr.constrain_ordered(raw)
        assert np.allclose(unconstrain_ordered(mu), raw, atol=1e-9)

    def test_unconstrain_rejects_unsorted(self):
        with pytest.raises(ValueError):
            unconstrain_ordered(np.array([1.0, 0.5]))

    def test_log_jacobian_matches_numeric(self):
        rng = make_rng(0)
        for _ in range(10):
            raw = rng.normal(size=4)
            _, lj = tr.constrain_ordered(raw)
            num = numeric_log_jacobian(
                lambda r: tr.constrain_ordered(r)[0], raw, 4)
            assert lj == pytest.approx(num, abs=1e-5)

    def test_gradient_matches_numeric(self):
        rng = make_rng(1)
        w = rng.normal(size=4)

        def scalar(raw):
            mu, lj = tr.constrain_ordered(raw)
            return float(w @ mu) + lj

        for _ in range(10):
            raw = rng.normal(size=4)
            got = tr.grad_ordered(raw, w)
            assert np.allclose(got, numeric_pullback(scalar, raw), atol=1e-5)


class TestPositive:
    @given(st.floats(-20, 20, allow_nan=False))
    def test_round_trip(self, raw):
        x, lj = tr.constrain_positive(raw)
        assert x > 0
        assert unconstrain_positive(x) == pytest.approx(raw, abs=1e-9)
        assert lj == pytest.approx(raw)  # d exp / d raw = exp(raw)

    def test_unconstrain_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            unconstrain_positive(0.0)

    def test_gradient_matches_numeric(self):
        def scalar(raw):
            x, lj = tr.constrain_positive(raw[0])
            return 3.0 * x + lj

        for raw in (-1.2, 0.0, 2.3):
            got = tr.grad_positive(raw, 3.0)
            num = numeric_pullback(scalar, np.array([raw]))[0]
            assert got == pytest.approx(num, abs=1e-5)


class TestSimplex:
    @given(raw_vec)
    def test_output_is_simplex(self, raw):
        p = tr.constrain_simplex(np.array(raw))[0]
        assert np.all(p > 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    @given(raw_vec)
    def test_round_trip(self, raw):
        raw = np.array(raw)
        p = tr.constrain_simplex(raw)[0]
        assert np.allclose(tr.unconstrain_simplex(p), raw, atol=1e-7)

    def test_zero_raw_gives_uniform(self):
        # the log(K-k) offsets centre the transform on the uniform simplex
        for k in (1, 2, 3, 5):
            p = tr.constrain_simplex(np.zeros(k - 1))[0]
            assert np.allclose(p, np.full(k, 1.0 / k), atol=1e-12)

    def test_log_jacobian_matches_numeric(self):
        rng = make_rng(2)
        for _ in range(10):
            raw = rng.normal(size=3)
            lj = tr.constrain_simplex(raw)[1]
            # first K-1 coordinates parameterise the simplex
            num = numeric_log_jacobian(
                lambda r: tr.constrain_simplex(r)[0][:3], raw, 3)
            assert lj == pytest.approx(num, abs=1e-5)

    def test_gradient_matches_numeric(self):
        rng = make_rng(3)
        w = rng.normal(size=4)

        def scalar(raw):
            p, lj, _ = tr.constrain_simplex(raw)
            return float(w @ p) + lj

        for _ in range(10):
            raw = rng.normal(size=3)
            got = tr.grad_simplex(tr.constrain_simplex(raw)[2], w)
            assert np.allclose(got, numeric_pullback(scalar, raw), atol=1e-5)


def stick_offsets(w):
    return np.log(np.arange(w, 0, -1))


@st.composite
def simplex_rows_case(draw):
    """(R, K-1) stick rows in +-50 and an (R, K) gradient, K = 2..6 and
    R = 1..32: stick-major rows of 8 or more run numpy's SIMD main loops,
    not only their tails (the ds model has R = 26)."""
    k = draw(st.integers(2, 6))
    r = draw(st.integers(1, 32))
    vals = st.floats(-50, 50, allow_nan=False)
    rows = np.array(draw(st.lists(vals, min_size=r * (k - 1),
                                  max_size=r * (k - 1)))).reshape(r, k - 1)
    g_p = np.array(draw(st.lists(vals, min_size=r * k,
                                 max_size=r * k))).reshape(r, k)
    return rows, g_p


def recomputed_simplex_rows(rows, g_p):
    """Row-wise stick-breaking and its pull-back with every reciprocal and
    product taken inside the loop: the reference arithmetic that the
    reused-sticks version must match bit for bit."""
    r, w = rows.shape
    z = tr.expit(rows - stick_offsets(w)[None, :])
    one_mz = 1.0 - z
    rem = np.empty((r, w))
    rem[:, 0] = 1.0
    if w > 1:
        rem[:, 1:] = np.cumprod(one_mz[:, :-1], axis=1)
    p = np.empty((r, w + 1))
    p[:, :w] = rem * z
    p[:, w] = rem[:, -1] * one_mz[:, -1]
    log_j = (np.log(z) + np.log1p(-z) + np.log(rem)).sum(axis=1)
    g_z = np.empty((r, w))
    g_rem = g_p[:, w].copy()
    for i in range(w - 1, -1, -1):
        g_z[:, i] = (g_p[:, i] - g_rem) * rem[:, i] \
            + 1.0 / z[:, i] - 1.0 / one_mz[:, i]
        g_rem = g_p[:, i] * z[:, i] + g_rem * one_mz[:, i]
        if i > 0:
            g_rem += 1.0 / rem[:, i]
    return p, log_j, g_z * z * one_mz


class TestSimplexRows:
    def test_matches_scalar_version(self):
        rng = make_rng(4)
        rows = rng.normal(size=(7, 4))
        p_rows, lj_rows, _ = tr.constrain_simplex_rows(rows)
        for i in range(7):
            p, lj, _ = tr.constrain_simplex(rows[i])
            assert np.allclose(p_rows[i], p, atol=1e-14)
            assert lj_rows[i] == pytest.approx(lj, rel=1e-12)

    def test_gradient_matches_scalar_version(self):
        rng = make_rng(5)
        rows = rng.normal(size=(6, 3))
        g_p = rng.normal(size=(6, 4))
        _, _, sticks = tr.constrain_simplex_rows(rows)
        got = tr.grad_simplex_rows(sticks, g_p)
        for i in range(6):
            sticks = tr.constrain_simplex(rows[i])[2]
            assert np.allclose(got[i], tr.grad_simplex(sticks, g_p[i]),
                               atol=1e-12)

    @settings(max_examples=300)
    @given(simplex_rows_case())
    def test_reused_sticks_bit_identical_to_recomputed(self, case):
        # at +-50 the sticks saturate: z rounds to 1, the remaining stick
        # to 0, logJ is -inf and the pull-back meets inf and nan
        rows, g_p = case
        w = rows.shape[1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            p, lj, sticks = tr.constrain_simplex_rows(rows)
            got = tr.grad_simplex_rows(sticks, g_p)
            want_p, want_lj, want_g = recomputed_simplex_rows(rows, g_p)
        assert np.array_equal(p, want_p, equal_nan=True)
        assert np.array_equal(lj, want_lj, equal_nan=True)
        assert np.array_equal(got, want_g, equal_nan=True)

    @pytest.mark.parametrize("r,k", [(1, 2), (26, 5), (9, 7)])
    def test_pull_back_leaves_sticks_unchanged(self, r, k):
        # one forward pass serves any number of pull-backs: each reads
        # the sticks as a fresh forward pass leaves them
        rng = make_rng(6)
        rows = rng.normal(scale=3.0, size=(r, k - 1))
        g_a, g_b = rng.normal(size=(2, r, k))
        _, _, sticks = tr.constrain_simplex_rows(rows)
        got_a = tr.grad_simplex_rows(sticks, g_a)
        got_b = tr.grad_simplex_rows(sticks, g_b)
        for g_p, got in ((g_a, got_a), (g_b, got_b)):
            fresh = tr.constrain_simplex_rows(rows)[2]
            assert np.array_equal(got, tr.grad_simplex_rows(fresh, g_p))

    def test_any_memory_layout_of_rows(self):
        # C-ordered, Fortran-ordered and strided views of the same rows
        # give the same bits
        rng = make_rng(7)
        rows = rng.normal(scale=3.0, size=(26, 4))
        wide = rng.normal(size=(52, 12))
        wide[::2, 1::3] = rows
        layouts = [np.asfortranarray(rows), wide[::2, 1::3],
                   rows[::-1].copy()[::-1]]
        want = tr.constrain_simplex_rows(rows)
        for view in layouts:
            assert np.array_equal(view, rows)
            got = tr.constrain_simplex_rows(view)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
