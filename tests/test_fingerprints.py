"""Bit-identity pins: sha256 of fixed-seed draws for every (model, method)
pair.  Refactors that are meant to leave the samplers' arithmetic alone
must leave these digests unchanged; a deliberate change to a sampler
updates the digest here in the same commit, with the reason."""

import hashlib

import numpy as np
import pytest

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
# its Dirichlet conditional.
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
     "48de179784908f99693ccb97b63f0e33f1e9b98e6768dafa4d32adf9cce86d3a"),
    ("ds", "nuts-marginal", 200, 160,
     "d68722f698e98769454fcae442ef7f8cab52f8083c8594d5e657ebaca9780843"),
    ("ds", "gibbs-full", 60, 30,
     "b7e80b50892a70e9ecf272224fc28861f800a8be0c188435b9d83c0ba5e35546"),
    ("ds", "gibbs-marginal", 30, 15,
     "20d0adcd1740d12417b037f561ce79692bcfa71f38c9a9be9610f7be249e38c7"),
]


def chain_digest(scenario_id, method, iterations, warmup):
    scenario = get_scenario(scenario_id)
    data, _ = gen_dataset(scenario, 1, SEED)
    model = scenario.model()
    rng = make_rng(SEED, hz._chain_stream(scenario_id, method, 1, 0))
    chain = hz.run_chain(model, data, method, iterations, warmup, rng)
    h = hashlib.sha256(np.ascontiguousarray(chain.draws, dtype=np.float64))
    if chain.tree_depths is not None:
        h.update(np.ascontiguousarray(chain.tree_depths).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("scenario_id,method,iterations,warmup,digest", PINS,
                         ids=[f"{p[0]}-{p[1]}" for p in PINS])
def test_draws_bit_identical(scenario_id, method, iterations, warmup, digest):
    assert chain_digest(scenario_id, method, iterations, warmup) == digest


# sha256 of (value, gradient) of each model's fused log posterior at
# GRAD_POINTS seeded points: half at |u| <= 3, half at scales up to
# |u| = 50, where sticks saturate (z rounds to 1, logs reach -inf) and
# the early return for a non-finite value runs.  The chain pins above
# never reach those points.  Both digests were recomputed with the NUTS
# pins above; the values they hash are unchanged, the gradients moved in
# the last bits.
GRAD_POINTS = 200
DS_GRAD_DIGEST = \
    "73ceda249e12ed7dc8614186753db692fed4085a5cc794d7fe89dda4ec8c9f8e"
MIX_GRAD_DIGEST = \
    "43bb0345f55bb9a9a8709a3d23689c7fd942bb332fc53ce93461c735a97459ed"


def gradient_digest(scenario_id):
    scenario = get_scenario(scenario_id)
    data, _ = gen_dataset(scenario, 1, SEED)
    model = scenario.model()
    rng = make_rng(SEED, 99)
    half = GRAD_POINTS // 2
    scales = np.concatenate([np.full(half, 3.0), np.linspace(3.0, 50.0, half)])
    h = hashlib.sha256()
    finite = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for s in scales:
            u = rng.uniform(-s, s, size=model.n_dim)
            value, grad, _ = model.log_post_grad_u(data, u)
            finite += bool(np.isfinite(value))
            h.update(np.float64(value).tobytes())
            h.update(np.ascontiguousarray(grad, dtype=np.float64).tobytes())
    return h.hexdigest(), finite


def check_gradient_pin(scenario_id, digest):
    got, finite = gradient_digest(scenario_id)
    # both branches of the gradient are covered
    assert GRAD_POINTS // 2 < finite < GRAD_POINTS
    assert got == digest


def test_ds_gradient_bit_identical():
    check_gradient_pin("ds", DS_GRAD_DIGEST)


def test_mixture_gradient_bit_identical():
    check_gradient_pin("three-comp-4", MIX_GRAD_DIGEST)
