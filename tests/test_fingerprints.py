"""Bit-identity pins: sha256 of fixed-seed draws for every (model, method)
pair.  Refactors that are meant to leave the samplers' arithmetic alone
must leave these digests unchanged; a deliberate change to a sampler
updates the digest here in the same commit, with the reason."""

import functools
import hashlib
from unittest import mock

import numpy as np
import pytest

from margmcmc import gibbs
from margmcmc import harness as hz
from margmcmc.simulate import gen_dataset, get_scenario
from margmcmc.stats import make_rng

SEED = 2024

# (scenario, method, iterations, warmup, sha256).  NUTS runs long enough
# for one mass-matrix window, so the step-size search runs twice.  The
# three NUTS digests were recomputed when the fused gradients went
# component-major: their sums over the data became pairwise, which moves
# the gradient in the last bits (tests/test_oracle_gradients.py bounds
# that against the row-major reference).  The Gibbs digests did not move
# then.  The four full-mode Gibbs digests (gibbs-full and
# gibbs-full-restricted) were recomputed when the Gibbs states stopped
# drawing a label vector at construction: the first sweep redrew it before
# anything read it, so it only advanced the generator.  The marginal and
# NUTS digests did not move.  three-comp-4 gibbs-full slices three ordered
# means, the middle one between two neighbours, and draws a K=3 pi from
# its Dirichlet conditional.  The three-comp-4 and both ds NUTS digests
# were recomputed when scipy left the program: the mixture prior's
# truncation renormalisers log Phi (now from math.erfc) and the rating
# model's Dirichlet normalisers (now math.lgamma) moved in the last bits,
# which feed the leapfrog steps and the accept statistic.  The two-comp-1
# NUTS digests did not move then, nor did any Gibbs digest: the Gibbs
# arms read densities only through slice comparisons.
PINS = [
    ("two-comp-1", "nuts-marginal", 200, 160,
     "a142ae56ca3de110080afa6c1c2adb7abdbee6c9b7d6f383b3c7fb2742e5985b"),
    ("two-comp-1", "gibbs-full", 60, 30,
     "037ba12b7e8feee3cddd4c8fcc29e74c970601c547b520cd29f7052c6ecba094"),
    ("two-comp-1", "gibbs-full-restricted", 60, 30,
     "b9d3d5947da40210acff9b20e9fcd03546ac327b666611f96552566a4b6e9da8"),
    ("two-comp-1", "gibbs-marginal", 60, 30,
     "90e144628921be89c8c656e369ff246d49ec315531ce6dd9e81189f780e58e9d"),
    # three components: pi has two sticks, so stick 0's moves rescale a
    # later stick's remainder
    ("three-comp-4", "gibbs-full", 60, 30,
     "4956f1bcd633bf09685f74620111985cdd9e081165a3e84a371d8f3ed8ccfd21"),
    ("three-comp-4", "gibbs-full-restricted", 60, 30,
     "ec0f3e9e3ba9fe3cb770824649aaafde04d0c440f9eab0a3b4eb0de06d911211"),
    ("three-comp-4", "gibbs-marginal", 60, 30,
     "ea02c0aff7c14745f05811aaa2ab9a97410594f310c11851f06f262d6a8fcd8e"),
    ("three-comp-4", "nuts-marginal", 200, 160,
     "280ab71642bf3c386c42788839f638b15eed3b827680c8086afbbe0be3071f12"),
    ("ds", "nuts-marginal", 200, 160,
     "2e1640b0af72cb0496235aa3bdef1a5d2ec0e69df606e89aabf2add5cef05669"),
    ("ds", "gibbs-full", 60, 30,
     "b7e80b50892a70e9ecf272224fc28861f800a8be0c188435b9d83c0ba5e35546"),
    ("ds", "gibbs-marginal", 30, 15,
     "20d0adcd1740d12417b037f561ce79692bcfa71f38c9a9be9610f7be249e38c7"),
    # two NUTS paths the pins above never reach: with no warmup the step
    # size found at the initial point is frozen before the first kept
    # transition, and a warmup shorter than 150 adapts the step size with
    # no mass-matrix window
    ("two-comp-1", "nuts-marginal", 40, 0,
     "ae86a0ff5c8ebee9e4c8931fc925882323059039a9c1243cd912a298804c4700"),
    ("ds", "nuts-marginal", 60, 40,
     "74f9c1d2426618c12374c28934e8124a1547eee4115e10b92f18df23f5c94763"),
    # longer marginal Gibbs chains, so that a slice target changed to read
    # cached terms is checked over many sweeps: its densities move in the
    # last bits, and a draw moves only if a comparison with a slice level
    # flips
    ("three-comp-4", "gibbs-marginal", 300, 150,
     "caa05d1a8a19f3c8f3311248f0de8dcd390929620d64445a05b42f8875daa8ac"),
    ("ds", "gibbs-marginal", 60, 30,
     "2a6d72d7b0188cfe6aec40a239d9ab9e5a43d905bd7fc52fcfc0b0382b5a8e16"),
    # every simplex slice target reads cached terms, the restricted arm's
    # pi too, so its densities move in the last bits: a longer restricted
    # chain and a longer rating-model chain check that no draw moves
    ("three-comp-4", "gibbs-full-restricted", 300, 150,
     "9a95127bfebf84f694a343aea4e60b25572c9245ec076b1795179a25c99721cb"),
    ("ds", "gibbs-marginal", 120, 60,
     "87729b133256a827c67abc8b66942c8db56bf11dd20ced52b5291e770037d38a"),
    # a longer three-component NUTS chain: _adaptation_windows(300) gives
    # two mass-matrix windows, so the step-size search after a window runs
    # twice, and every leapfrog of 400 transitions feeds the draws
    ("three-comp-4", "nuts-marginal", 400, 300,
     "eb1ba104293d923e5b1352901659b229de4ed9051c010365936dbe1771dbe018"),
    # the same for the rating model: the two ds NUTS pins above see at
    # most one window, and this one feeds every leapfrog of the stick
    # transforms' row path through two windows and two step-size searches
    ("ds", "nuts-marginal", 400, 300,
     "5934b51c113ac93c10c92763051fce207d2e1caf6b595f4909db0859c65c300f"),
    # longer label-sampling chains, so that a change to the conjugate
    # Dirichlet draws or to the full arm's slice targets is checked over
    # many sweeps: every gamma variate and every slice comparison of 600
    # sweeps feeds these digests
    ("three-comp-4", "gibbs-full", 600, 300,
     "863fc92105a2ccf21c88a355bd452af3a0028191e1eb3295ebe6be0300c4f616"),
    ("ds", "gibbs-full", 600, 300,
     "b8d89640b0e2a480b87d9b307c42d31efe32ee3e0aee315d42f929d252918d1b"),
]


def chain_digest(scenario_id, method, iterations, warmup):
    scenario = get_scenario(scenario_id)
    data, _ = gen_dataset(scenario, 1, SEED)
    model = scenario.model()
    rng = make_rng(SEED, f"{scenario_id}|{method}|1|0")
    chain = hz.run_chain(model, data, method, iterations, warmup, rng)
    h = hashlib.sha256(np.ascontiguousarray(chain.draws, dtype=np.float64))
    if chain.tree_depths is not None:
        h.update(np.ascontiguousarray(chain.tree_depths).tobytes())
    return h.hexdigest()


def pin_ids(pins):
    """`scenario-method` for each pin, with the lengths appended to a
    second pin of the same arm."""
    seen, ids = set(), []
    for scenario_id, method, iterations, warmup, _ in pins:
        key = f"{scenario_id}-{method}"
        ids.append(f"{key}-{iterations}-{warmup}" if key in seen else key)
        seen.add(key)
    return ids


@pytest.mark.parametrize("scenario_id,method,iterations,warmup,digest", PINS,
                         ids=pin_ids(PINS))
def test_draws_bit_identical(scenario_id, method, iterations, warmup, digest):
    assert chain_digest(scenario_id, method, iterations, warmup) == digest


# Slice density evaluations of two marginal Gibbs pins above, counted as
# perfbench's meter counts them, by wrapping gibbs.slice_sample_1d.  A
# change to a slice target or to the slice kernel must leave evaluations
# per iteration, a factor of the compared metric, exactly as they are.
EVAL_COUNTS = [
    ("ds", "gibbs-marginal", 60, 30, 68323),
    ("three-comp-4", "gibbs-marginal", 300, 150, 14174),
]


@pytest.mark.parametrize("scenario_id,method,iterations,warmup,evals",
                         EVAL_COUNTS, ids=pin_ids(EVAL_COUNTS))
def test_slice_evaluations_counted(scenario_id, method, iterations, warmup,
                                   evals):
    calls = 0
    slice_move = gibbs.slice_sample_1d

    def counting_move(logdensity, *args, **kwargs):
        def counted(x):
            nonlocal calls
            calls += 1
            return logdensity(x)
        return slice_move(counted, *args, **kwargs)

    with mock.patch.object(gibbs, "slice_sample_1d", counting_move):
        chain_digest(scenario_id, method, iterations, warmup)
    assert calls == evals


# sha256 of (value, gradient) of each model's fused log posterior at
# GRAD_POINTS seeded points: half at |u| <= 3, half at scales up to
# |u| = 50, where sticks saturate (z rounds to 1, logs reach -inf) and
# the early return for a non-finite value runs.  The chain pins above
# never reach those points.  Both digests were recomputed with the NUTS
# pins above when the fused gradients went component-major (the values
# they hash were unchanged, the gradients moved in the last bits), and
# again when scipy left the program.  Then, on the rating model, 45 of
# the 174 finite values moved by at most 1 ulp (the Dirichlet
# normalisers) and no gradient moved.  On the mixture 10 of the 188
# finite values moved in the last bit, and the mean gradients at 27
# points: in the last bits where |u| is small, and by any amount at the
# points where a mean passes about 1e9, whose truncation term
# exp(-a^2/2 - log Phi(-a)) cancelled two numbers near a^2/2 and kept
# none of its digits in either version.  MIX_GRAD_DIGEST was recomputed
# once more when that term became `stats.inv_mills_ratio`, which at
# a = mu_k / 10 >= 37.5 is a / (1 + s) from log Phi's series s: the 28
# points with such an a (83 to 5.7e13) moved their mean gradients, by
# under 1e-12 relative below a = 1e3 and by up to a factor 2 past
# a = 1e8; no value moved, nor any chain pin above.
GRAD_POINTS = 200
DS_GRAD_DIGEST = \
    "696473d13d65283f45471eb36e4519549939b41de1dfbdb1f84d836c7eb3bbbe"
MIX_GRAD_DIGEST = \
    "8a3c3cb0ebe49bcaa93807203a015b243959db35d32f716c74f32ff128acb6c8"
# sha256 of the third returned value, the parameters (mu, sigma, pi; pi,
# theta) flattened as a kept draw is, at the same points, the non-finite
# ones included.  NUTS keeps these as its draws, so they must not move
# when the value and the gradient do not.
DS_PARAMS_DIGEST = \
    "fbe820a8cad7a9cf2c944f8125eeef2d5c6a79aaef861378fe2df1dbee862b52"
MIX_PARAMS_DIGEST = \
    "778e86bda4ddcbc08cf052bbd79c2044c5c8023ee5a3db951f99ed098ccfb61e"


@functools.lru_cache(maxsize=None)
def gradient_digest(scenario_id):
    """(sha256 of the values and gradients, sha256 of the parameters,
    number of finite values) at the GRAD_POINTS points."""
    scenario = get_scenario(scenario_id)
    data, _ = gen_dataset(scenario, 1, SEED)
    model = scenario.model()
    rng = make_rng(SEED, 99)
    half = GRAD_POINTS // 2
    scales = np.concatenate([np.full(half, 3.0), np.linspace(3.0, 50.0, half)])
    h, h_params = hashlib.sha256(), hashlib.sha256()
    finite = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for s in scales:
            u = rng.uniform(-s, s, size=model.n_dim)
            value, grad, params = model.log_post_grad_u(data, u)
            finite += bool(np.isfinite(value))
            h.update(np.float64(value).tobytes())
            h.update(np.ascontiguousarray(grad, dtype=np.float64).tobytes())
            h_params.update(np.ascontiguousarray(model.flatten(params),
                                                 dtype=np.float64).tobytes())
    return h.hexdigest(), h_params.hexdigest(), finite


def check_gradient_pin(scenario_id, digest):
    got, _, finite = gradient_digest(scenario_id)
    # both branches of the gradient are covered
    assert GRAD_POINTS // 2 < finite < GRAD_POINTS
    assert got == digest


def test_ds_gradient_bit_identical():
    check_gradient_pin("ds", DS_GRAD_DIGEST)


def test_mixture_gradient_bit_identical():
    check_gradient_pin("three-comp-4", MIX_GRAD_DIGEST)


@pytest.mark.parametrize("scenario_id,digest", [
    ("ds", DS_PARAMS_DIGEST), ("three-comp-4", MIX_PARAMS_DIGEST)],
    ids=["ds", "three-comp-4"])
def test_gradient_params_bit_identical(scenario_id, digest):
    assert gradient_digest(scenario_id)[1] == digest
