"""Each model's fused (value, gradient) against the row-major reference in
`tests/oracles.py`, and against overflow at extreme points.

The component-major kernels keep the value's arithmetic step for step,
so the value must be bit-identical.  The gradient's sums over the data
run pairwise over a contiguous axis instead of sequentially, so it
agrees to rounding only: max|new - old| / max(1, max|old|) <= 1e-12 at
|u| <= 3.  Further out, at |u| up to 50, the two must still take the
same branch (finite, or (-inf, zeros)); element-wise agreement is not
asked there, because mean increments near e^20 make the ordered
pull-back cancel catastrophically in either arithmetic.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from margmcmc import dawid_skene as dsm
from margmcmc import harness as hz
from margmcmc import mixture as mx
from margmcmc.simulate import gen_dataset, get_scenario
from margmcmc.stats import make_rng
from oracles import ds_grad_row_major, mix_grad_row_major

SCENARIOS = ("two-comp-1", "three-comp-4", "ds")
ERRSTATE = dict(divide="ignore", over="ignore", invalid="ignore")


@functools.lru_cache(maxsize=None)
def problem(scenario_id):
    scenario = get_scenario(scenario_id)
    data, _ = gen_dataset(scenario, 1, 2024)
    return scenario.model(), data


def both(scenario_id, u):
    """(new, old) fused (value, gradient) at u."""
    model, data = problem(scenario_id)
    if isinstance(model, mx.MixtureModel):
        old = mix_grad_row_major(data, u, model.k)
    else:
        old = ds_grad_row_major(model, data, u)
    return model.log_post_grad_u(data, u)[:2], old


def points(scale):
    @st.composite
    def draw(draw_):
        sid = draw_(st.sampled_from(SCENARIOS))
        n = problem(sid)[0].n_dim
        u = draw_(hnp.arrays(np.float64, n,
                             elements=st.floats(-scale, scale)))
        return sid, u
    return draw()


@settings(max_examples=300, deadline=None)
@given(points(3.0))
def test_matches_row_major_reference(case):
    sid, u = case
    with np.errstate(**ERRSTATE):
        (v_new, g_new), (v_old, g_old) = both(sid, u)
    assert v_new == v_old
    assert np.isfinite(v_old)
    scale = max(1.0, float(np.max(np.abs(g_old))))
    assert float(np.max(np.abs(g_new - g_old))) / scale <= 1e-12


@settings(max_examples=300, deadline=None)
@given(points(50.0))
def test_same_branch_as_row_major_reference(case):
    sid, u = case
    with np.errstate(**ERRSTATE):
        (v_new, g_new), (v_old, g_old) = both(sid, u)
    assert v_new == v_old or (np.isnan(v_new) and np.isnan(v_old))
    if not np.isfinite(v_old):
        assert v_new == -np.inf and not np.any(g_new)


def extreme_points(n_dim, rng):
    """Every coordinate alone at +-800, all of them at +-800, and random
    sign patterns of +-800 and 0."""
    for i, s in itertools.product(range(n_dim), (-800.0, 800.0)):
        u = np.zeros(n_dim)
        u[i] = s
        yield u
    for s in (-800.0, 800.0):
        yield np.full(n_dim, s)
    for _ in range(100):
        yield rng.choice([-800.0, 0.0, 800.0], size=n_dim)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ["mixture", "ds"])
def test_extreme_points_never_raise(kind, k):
    # Python-float arithmetic raises OverflowError (and ZeroDivisionError)
    # where np.float64 returns inf; the gradients must return instead
    rng = make_rng(77, k)
    if kind == "mixture":
        model = mx.MixtureModel(k)
        data = mx.MixtureData(rng.normal(0.0, 3.0, size=20))
    else:
        model = dsm.DawidSkeneModel(3, k)
        data = dsm.DSData(rng.integers(0, k, size=(12, 3)), k)
    with np.errstate(**ERRSTATE):
        for u in extreme_points(model.n_dim, rng):
            value, grad, _ = model.log_post_grad_u(data, u)
            assert grad.shape == (model.n_dim,)
            if np.isfinite(value):
                assert np.all(np.isfinite(grad))
            else:
                assert value == -np.inf and not np.any(grad)
