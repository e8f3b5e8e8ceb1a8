"""No-U-Turn sampler with dual-averaging step size adaptation and a
diagonal mass matrix estimated during warmup.

Multinomial sampling across the trajectory.  The U-turn test is Hoffman
& Gelman's with the mass matrix: it stops when dq . M^-1 p < 0 at either
end of the trajectory, dq being the span from its backward to its
forward end (not Stan's test on the momentum sum, Betancourt 2017).
Trajectory doubling stops on a U-turn, on reaching the maximum tree
depth, or on a divergence (energy error above 1000).  Operates on the
marginalised models only, through the model handle's fused
`log_post_grad_u`, which returns the unconstrained log posterior, its
gradient and the constrained parameters from one evaluation.  The chain
state, `NutsChain`, keeps all three with its point, so `harness.run_chain`
flattens its `params` into a kept draw and the step-size search reuses
its density and gradient: no point is evaluated twice.

The tree's bookkeeping is on Python floats; its exps and logs stay
numpy's, whose last bits differ from `math`'s, and log-add-exp is
numpy's scalar formula (see `_log_add_exp`).  Its vector dots are bound
`.dot` calls: BLAS ddot, as `@` calls, bit for bit and at half the cost.

The tuning values are fixed and are Stan's defaults: target acceptance
0.8, maximum tree depth 10, initial points uniform on [-2, 2], adaptation
windows 75 / 25 / 50 (initial buffer, first slow window, terminal
buffer), and the dual-averaging constants of Hoffman & Gelman (2014).
Adaptation always runs.  Unlike Stan, the first mass-matrix window takes
its draws from iteration 0, initial buffer included (see `NutsChain`).
"""

import functools
import math

import numpy as np

DIVERGENCE_ENERGY = 1000.0
TARGET_ACCEPT = 0.8
MAX_TREE_DEPTH = 10
INIT_RADIUS = 2.0
# dual-averaging constants (Hoffman & Gelman 2014)
DA_GAMMA = 0.05
DA_T0 = 10.0
DA_KAPPA = 0.75
LOG_2 = math.log(2.0)           # numpy's NPY_LOGE2


class AdaptState:
    """Dual averaging of the step size (Hoffman & Gelman 2014), started
    afresh at `step_size`."""

    def __init__(self, step_size):
        self.step_size = step_size
        self.mu = np.log(10.0 * step_size)    # shrinkage point
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


def _log_add_exp(x, y):
    """np.logaddexp of two floats, bit for bit: numpy's scalar loop, whose
    exp and log1p are libm's, as `math`'s are."""
    if x == y:
        return x + LOG_2            # also inf and -inf, without a nan
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    if d <= 0:
        return y + math.log1p(math.exp(d))
    return d                        # nan


class _Tree:
    """Subtree summary for the doubling procedure.  `ends` is [backward,
    forward], each end (q, p, v, g) with `v` the velocity M^-1 p and `g`
    the gradient there, so `ends[direction > 0]` is the end that grows;
    `prop` is the proposal (q, logp, grad, params), in `transition`'s
    state order."""
    __slots__ = ("ends", "prop", "log_sum_weight", "sum_accept",
                 "n_leapfrog", "diverged", "turning")


def _uturn(ends):
    """Hoffman & Gelman's criterion: dq . M^-1 p < 0 at either end."""
    (q_back, _, v_back, _), (q_fwd, _, v_fwd, _) = ends
    dq = q_fwd - q_back
    return dq.dot(v_back) < 0 or dq.dot(v_fwd) < 0


class _NutsKernel:
    """Shares one fused (logp, grad, params) evaluation per leapfrog step
    by caching the gradient and the velocity at both trajectory ends, and
    the whole evaluation at the proposal."""

    def __init__(self, logp_grad_fn, inv_mass, rng):
        self.logp_grad = logp_grad_fn
        self.inv_mass = inv_mass
        self.rng = rng

    def _leaf(self, edge, direction, step_size, h0):
        """One leapfrog step from the end `edge`, its gradient cached."""
        q, p, _, g = edge
        eps = direction * step_size
        half = 0.5 * eps
        p_half = p + half * g
        q1 = q + eps * (self.inv_mass * p_half)
        lp1, g1, params1 = self.logp_grad(q1)
        p1 = p_half + half * g1
        v1 = self.inv_mass * p1
        tree = _Tree()
        tree.ends = [(q1, p1, v1, g1)] * 2
        tree.prop = (q1, lp1, g1, params1)
        tree.n_leapfrog = 1
        h1 = -lp1 + 0.5 * float(p1.dot(v1))
        if not math.isfinite(h1):
            h1 = math.inf
        delta = h0 - h1                     # log weight of the leaf
        tree.diverged = (h1 - h0) > DIVERGENCE_ENERGY
        tree.turning = False
        if math.isfinite(delta):
            tree.log_sum_weight = delta
            tree.sum_accept = 1.0 if delta >= 0.0 else float(np.exp(delta))
        else:
            tree.log_sum_weight = -math.inf
            tree.sum_accept = 0.0
        return tree

    def build_tree(self, depth, edge, direction, step_size, h0):
        """Recursive doubling from the end `edge`; depth 0 is a single
        leapfrog step.  The first subtree becomes the merged one."""
        if depth == 0:
            return self._leaf(edge, direction, step_size, h0)
        tree = self.build_tree(depth - 1, edge, direction, step_size, h0)
        if tree.diverged or tree.turning:
            return tree
        grow = direction > 0
        second = self.build_tree(depth - 1, tree.ends[grow], direction,
                                 step_size, h0)
        tree.ends[grow] = second.ends[grow]
        tree.n_leapfrog += second.n_leapfrog
        tree.sum_accept += second.sum_accept
        tree.diverged = second.diverged
        total = _log_add_exp(tree.log_sum_weight, second.log_sum_weight)
        tree.log_sum_weight = total
        # multinomial choice between the subtrees' proposals
        if np.log(self.rng.random()) < second.log_sum_weight - total:
            tree.prop = second.prop
        tree.turning = second.turning or _uturn(tree.ends)
        return tree

    def transition(self, state, step_size):
        """One NUTS transition.

        `state` is (q, logp, grad, params), the evaluation at q; returns
        (state', accept_stat, depth, diverged).
        """
        q, lp, g, _ = prop = state
        rng = self.rng
        p = rng.standard_normal(len(q)) / np.sqrt(self.inv_mass)
        v = self.inv_mass * p
        h0 = -lp + 0.5 * float(p.dot(v))
        ends = [(q, p, v, g)] * 2
        log_sum_weight = 0.0     # weight of the initial point: exp(h0 - h0)
        sum_accept = 0.0
        n_leapfrog = 0
        diverged = False
        depth = 0
        while depth < MAX_TREE_DEPTH:
            direction = 1 if rng.random() < 0.5 else -1
            grow = direction > 0
            sub = self.build_tree(depth, ends[grow], direction, step_size, h0)
            n_leapfrog += sub.n_leapfrog
            sum_accept += sub.sum_accept
            if sub.diverged:
                diverged = True
                break
            ends[grow] = sub.ends[grow]
            if sub.turning:
                break
            # biased progressive sampling toward the new subtree
            if np.log(rng.random()) < sub.log_sum_weight - log_sum_weight:
                prop = sub.prop
            log_sum_weight = _log_add_exp(log_sum_weight, sub.log_sum_weight)
            depth += 1
            if _uturn(ends):
                break
        accept_stat = sum_accept / max(n_leapfrog, 1)
        return prop, accept_stat, depth, diverged


def find_reasonable_step_size(kernel, state):
    """Crude bracketing of a step size with acceptance ratio near 1/2
    (Hoffman & Gelman 2014, Alg. 4) from the chain state (q, logp, grad,
    params), one kernel leapfrog step per trial, the momentum drawn from
    the kernel's generator."""
    eps = 1.0
    inv_mass = kernel.inv_mass
    q, lp0, g0, _ = state
    p = kernel.rng.standard_normal(len(q)) / np.sqrt(inv_mass)
    h0 = -lp0 + 0.5 * float(p.dot(inv_mass * p))
    edge = (q, p, None, g0)

    def log_ratio(eps_):
        return kernel._leaf(edge, 1, eps_, h0).log_sum_weight

    direction = 1 if log_ratio(eps) > np.log(0.5) else -1
    for _ in range(100):
        eps *= 2.0 ** direction
        if direction * log_ratio(eps) <= direction * np.log(0.5):
            return eps
    return eps


def _adaptation_windows(warmup):
    """Iteration indices (exclusive ends) where the mass matrix is
    refreshed: each slow window doubles the last, and one that would
    leave less than twice its size before the terminal buffer runs to
    the buffer instead."""
    init_buffer, term_buffer, base_window = 75, 50, 25
    if warmup < init_buffer + term_buffer + base_window:
        return []
    end = warmup - term_buffer
    start, size = init_buffer, base_window
    ends = []
    while start + 3 * size < end:
        ends.append(start + size)
        start += size
        size *= 2
    return ends + [end]


class NutsChain:
    """One NUTS chain on the marginalised posterior of `model`, from a
    point uniform on [-INIT_RADIUS, INIT_RADIUS] in each unconstrained
    coordinate.  A sweep is one transition.  The first `warmup` sweeps
    adapt and the last of them freezes the step size (with no warmup, the
    constructor does); later sweeps record tree depth and divergence.

    The window draws for the mass matrix are collected from iteration 0,
    so the first window is [0, 100) with 100 draws, where Stan's is
    [75, 100) after its initial buffer; the later windows match Stan's.
    """

    def __init__(self, model, data, rng, warmup):
        d = model.n_dim
        q = rng.uniform(-INIT_RADIUS, INIT_RADIUS, size=d)
        logp_grad_fn = functools.partial(model.log_post_grad_u, data)
        lp0, g0, params0 = logp_grad_fn(q)
        if not np.all(np.isfinite(g0)) or not np.isfinite(lp0):
            raise ValueError(
                "non-finite log density or gradient at the initial point")
        self.state = (q, lp0, g0, params0)
        self.kernel = _NutsKernel(logp_grad_fn, np.ones(d), rng)
        self.adapt = AdaptState(find_reasonable_step_size(self.kernel,
                                                          self.state))
        self.warmup_left = warmup
        # window ends, as the warmup sweeps left after each
        self.window_ends = [warmup - e for e in _adaptation_windows(warmup)]
        self.window_draws = []
        self.depths = []
        self.divergences = 0
        if warmup == 0:
            self.adapt.freeze()

    @property
    def params(self):
        return self.state[3]

    def sweep(self):
        """One transition, adapting if it is a warmup one."""
        self.state, accept_stat, depth, diverged = self.kernel.transition(
            self.state, self.adapt.step_size)
        if self.warmup_left == 0:
            self.depths.append(depth)
            self.divergences += diverged
            return
        self.warmup_left -= 1
        self.adapt.update(accept_stat)
        if self.window_ends:
            self.window_draws.append(self.state[0])
            if self.warmup_left == self.window_ends[0]:
                self.window_ends.pop(0)
                n = len(self.window_draws)
                var = np.var(self.window_draws, axis=0, ddof=1)
                # regularise toward unit scale, as the window may be short
                self.kernel.inv_mass = ((n / (n + 5.0)) * var
                                        + 1e-3 * (5.0 / (n + 5.0)))
                self.window_draws = []
                self.adapt = AdaptState(
                    find_reasonable_step_size(self.kernel, self.state))
        if self.warmup_left == 0:
            self.adapt.freeze()
