"""No-U-Turn sampler with dual-averaging step size adaptation and a
diagonal mass matrix estimated during warmup.

Multinomial sampling across the trajectory with the generalised
(metric-aware) U-turn criterion; trajectory doubling stops on a U-turn,
on reaching the maximum tree depth, or on a divergence (energy error
above 1000).  Operates on the marginalised models only, through the
model handle's fused `log_post_grad_u`, which returns the unconstrained
log posterior and its gradient from one evaluation.

The tuning values are fixed and are Stan's defaults: target acceptance
0.8, maximum tree depth 10, initial points uniform on [-2, 2], adaptation
windows 75 / 25 / 50 (initial buffer, first slow window, terminal
buffer), and the dual-averaging constants of Hoffman & Gelman (2014).
Adaptation always runs.
"""

import time
from dataclasses import dataclass

import numpy as np

from .draws import ChainDraws, check_lengths

DIVERGENCE_ENERGY = 1000.0
TARGET_ACCEPT = 0.8
MAX_TREE_DEPTH = 10
INIT_RADIUS = 2.0
# dual-averaging constants (Hoffman & Gelman 2014)
DA_GAMMA = 0.05
DA_T0 = 10.0
DA_KAPPA = 0.75


@dataclass
class AdaptState:
    step_size: float
    mu: float = 0.0             # dual-averaging shrinkage point
    log_step_avg: float = 0.0
    h_bar: float = 0.0
    count: int = 0

    def restart(self, step_size):
        self.step_size = step_size
        self.mu = np.log(10.0 * step_size)
        self.log_step_avg = np.log(step_size)
        self.h_bar = 0.0
        self.count = 0

    def update(self, accept_prob):
        """One dual-averaging step toward the target acceptance rate."""
        self.count += 1
        m = self.count
        eta = 1.0 / (m + DA_T0)
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (TARGET_ACCEPT - accept_prob)
        log_step = self.mu - np.sqrt(m) / DA_GAMMA * self.h_bar
        w = m ** (-DA_KAPPA)
        self.log_step_avg = w * log_step + (1.0 - w) * self.log_step_avg
        self.step_size = float(np.exp(log_step))

    def freeze(self):
        self.step_size = float(np.exp(self.log_step_avg))


class _Tree:
    """Subtree summary for the doubling procedure."""
    __slots__ = ("q_minus", "p_minus", "g_minus", "q_plus", "p_plus",
                 "g_plus", "q_prop", "g_prop", "lp_prop",
                 "log_sum_weight", "sum_accept", "n_leapfrog",
                 "diverged", "turning")


class _NutsKernel:
    """Shares one fused (logp, grad) evaluation per leapfrog step by
    caching the gradient at both trajectory edges and at the proposal."""

    def __init__(self, logp_grad_fn, inv_mass, rng):
        self.logp_grad = logp_grad_fn
        self.inv_mass = inv_mass
        self.rng = rng

    def _uturn(self, q_minus, p_minus, q_plus, p_plus):
        dq = q_plus - q_minus
        return (float(dq @ (self.inv_mass * p_minus)) < 0
                or float(dq @ (self.inv_mass * p_plus)) < 0)

    def _leaf(self, q, p, g, direction, step_size, h0):
        """One leapfrog step from (q, p) with cached gradient g."""
        eps = direction * step_size
        p_half = p + 0.5 * eps * g
        q1 = q + eps * (self.inv_mass * p_half)
        lp1, g1 = self.logp_grad(q1)
        p1 = p_half + 0.5 * eps * g1
        tree = _Tree()
        tree.q_minus = tree.q_plus = tree.q_prop = q1
        tree.p_minus = tree.p_plus = p1
        tree.g_minus = tree.g_plus = tree.g_prop = g1
        tree.lp_prop = lp1
        tree.n_leapfrog = 1
        h1 = -lp1 + 0.5 * float(p1 @ (self.inv_mass * p1))
        if not np.isfinite(h1):
            h1 = np.inf
        delta = h0 - h1                     # log weight of the leaf
        tree.diverged = (h1 - h0) > DIVERGENCE_ENERGY
        tree.turning = False
        tree.log_sum_weight = delta if np.isfinite(delta) else -np.inf
        if np.isfinite(delta):
            tree.sum_accept = float(np.exp(min(delta, 0.0)))
        else:
            tree.sum_accept = 0.0
        return tree

    def build_tree(self, depth, q, p, g, direction, step_size, h0):
        """Recursive doubling; depth 0 is a single leapfrog step."""
        if depth == 0:
            return self._leaf(q, p, g, direction, step_size, h0)
        first = self.build_tree(depth - 1, q, p, g, direction, step_size, h0)
        if first.diverged or first.turning:
            return first
        if direction > 0:
            q_edge, p_edge, g_edge = first.q_plus, first.p_plus, first.g_plus
        else:
            q_edge, p_edge, g_edge = first.q_minus, first.p_minus, first.g_minus
        second = self.build_tree(depth - 1, q_edge, p_edge, g_edge, direction,
                                 step_size, h0)
        tree = _Tree()
        if direction > 0:
            tree.q_minus, tree.p_minus, tree.g_minus = \
                first.q_minus, first.p_minus, first.g_minus
            tree.q_plus, tree.p_plus, tree.g_plus = \
                second.q_plus, second.p_plus, second.g_plus
        else:
            tree.q_minus, tree.p_minus, tree.g_minus = \
                second.q_minus, second.p_minus, second.g_minus
            tree.q_plus, tree.p_plus, tree.g_plus = \
                first.q_plus, first.p_plus, first.g_plus
        tree.n_leapfrog = first.n_leapfrog + second.n_leapfrog
        tree.sum_accept = first.sum_accept + second.sum_accept
        tree.diverged = second.diverged
        total = np.logaddexp(first.log_sum_weight, second.log_sum_weight)
        tree.log_sum_weight = total
        # multinomial choice between the subtrees' proposals
        if np.log(self.rng.random()) < second.log_sum_weight - total:
            tree.q_prop, tree.g_prop, tree.lp_prop = \
                second.q_prop, second.g_prop, second.lp_prop
        else:
            tree.q_prop, tree.g_prop, tree.lp_prop = \
                first.q_prop, first.g_prop, first.lp_prop
        tree.turning = (second.turning
                        or self._uturn(tree.q_minus, tree.p_minus,
                                       tree.q_plus, tree.p_plus))
        return tree

    def transition(self, state, step_size):
        """One NUTS transition.

        `state` is (q, logp, grad) with the cached density and gradient at
        q; returns (state', accept_stat, depth, diverged).
        """
        q, lp, g = state
        rng = self.rng
        p = rng.standard_normal(len(q)) / np.sqrt(self.inv_mass)
        h0 = -lp + 0.5 * float(p @ (self.inv_mass * p))
        q_minus = q_plus = q_prop = q
        p_minus = p_plus = p
        g_minus = g_plus = g_prop = g
        lp_prop = lp
        log_sum_weight = 0.0     # weight of the initial point: exp(h0 - h0)
        sum_accept = 0.0
        n_leapfrog = 0
        diverged = False
        depth = 0
        while depth < MAX_TREE_DEPTH:
            direction = 1 if rng.random() < 0.5 else -1
            if direction > 0:
                sub = self.build_tree(depth, q_plus, p_plus, g_plus,
                                      1, step_size, h0)
            else:
                sub = self.build_tree(depth, q_minus, p_minus, g_minus,
                                      -1, step_size, h0)
            n_leapfrog += sub.n_leapfrog
            sum_accept += sub.sum_accept
            if sub.diverged:
                diverged = True
                break
            if direction > 0:
                q_plus, p_plus, g_plus = sub.q_plus, sub.p_plus, sub.g_plus
            else:
                q_minus, p_minus, g_minus = sub.q_minus, sub.p_minus, sub.g_minus
            if sub.turning:
                break
            # biased progressive sampling toward the new subtree
            if np.log(rng.random()) < sub.log_sum_weight - log_sum_weight:
                q_prop, g_prop, lp_prop = sub.q_prop, sub.g_prop, sub.lp_prop
            log_sum_weight = np.logaddexp(log_sum_weight, sub.log_sum_weight)
            depth += 1
            if self._uturn(q_minus, p_minus, q_plus, p_plus):
                break
        accept_stat = sum_accept / max(n_leapfrog, 1)
        return (q_prop, lp_prop, g_prop), accept_stat, depth, diverged


def find_reasonable_step_size(kernel, q, rng):
    """Crude bracketing of a step size with acceptance ratio near 1/2
    (Hoffman & Gelman 2014, Alg. 4), one kernel leapfrog step per trial."""
    eps = 1.0
    inv_mass = kernel.inv_mass
    p = rng.standard_normal(len(q)) / np.sqrt(inv_mass)
    lp0, g0 = kernel.logp_grad(q)
    h0 = -lp0 + 0.5 * float(p @ (inv_mass * p))

    def log_ratio(eps_):
        return kernel._leaf(q, p, g0, 1, eps_, h0).log_sum_weight

    direction = 1 if log_ratio(eps) > np.log(0.5) else -1
    for _ in range(100):
        eps *= 2.0 ** direction
        if direction * log_ratio(eps) <= direction * np.log(0.5):
            return eps
    return eps


def _adaptation_windows(warmup):
    """Iteration indices (exclusive ends) where the mass matrix is refreshed."""
    init_buffer, term_buffer, base_window = 75, 50, 25
    if warmup < init_buffer + term_buffer + base_window:
        return []
    ends = []
    start = init_buffer
    size = base_window
    while start + size < warmup - term_buffer:
        next_size = size * 2
        if start + size + next_size >= warmup - term_buffer:
            ends.append(warmup - term_buffer)
            return ends
        ends.append(start + size)
        start += size
        size = next_size
    ends.append(warmup - term_buffer)
    return ends


def nuts_run(model, data, iterations, warmup, rng, init=None):
    """Run one NUTS chain of `iterations` transitions, the first `warmup`
    of them adapting and discarded, on the marginalised posterior of
    `model`."""
    check_lengths(iterations, warmup)
    d = model.n_dim
    if init is None:
        init = rng.uniform(-INIT_RADIUS, INIT_RADIUS, size=d)
    q = np.asarray(init, dtype=float)

    def logp_grad_fn(u):
        v, g = model.log_post_grad_u(data, u)
        return (v, g) if np.isfinite(v) else (-np.inf, g)

    n_keep = iterations - warmup
    draws = np.empty((n_keep, len(model.param_names())))
    tree_depths = np.empty(iterations, dtype=np.int8)
    divergences = 0
    # one errstate for the whole chain, the step-size searches included
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lp0, g0 = logp_grad_fn(q)
        if not np.all(np.isfinite(g0)) or not np.isfinite(lp0):
            raise ValueError(
                "non-finite log density or gradient at the initial point")

        kernel = _NutsKernel(logp_grad_fn, np.ones(d), rng)
        eps = find_reasonable_step_size(kernel, q, rng)
        adapt = AdaptState(step_size=eps)
        adapt.restart(eps)

        window_ends = _adaptation_windows(warmup)
        window_draws = []
        state = (q, lp0, g0)
        t0 = time.perf_counter()
        for it in range(warmup):
            state, accept_stat, depth, diverged = kernel.transition(
                state, adapt.step_size)
            tree_depths[it] = depth
            adapt.update(accept_stat)
            if window_ends:
                window_draws.append(state[0])
                if it + 1 == window_ends[0]:
                    window_ends.pop(0)
                    sample = np.asarray(window_draws)
                    n = sample.shape[0]
                    var = sample.var(axis=0, ddof=1)
                    # regularise toward unit scale, as the window may be short
                    kernel.inv_mass = ((n / (n + 5.0)) * var
                                       + 1e-3 * (5.0 / (n + 5.0)))
                    window_draws = []
                    eps = find_reasonable_step_size(kernel, state[0], rng)
                    adapt.restart(eps)
        adapt.freeze()
        t1 = time.perf_counter()
        for it in range(n_keep):
            state, accept_stat, depth, diverged = kernel.transition(
                state, adapt.step_size)
            tree_depths[warmup + it] = depth
            if diverged:
                divergences += 1
            params, _ = model.constrain(state[0])
            draws[it] = model.flatten(params)
        t2 = time.perf_counter()

    return ChainDraws(draws=draws, param_names=model.param_names(),
                      warmup_time=t1 - t0, sampling_time=t2 - t1,
                      divergences=divergences,
                      tree_depths=tree_depths[warmup:])
