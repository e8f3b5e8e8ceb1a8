"""Convergence and efficiency diagnostics for multi-chain MCMC output.

Effective sample size uses the multi-chain autocovariance estimator with
Geyer's initial monotone sequence truncation; potential scale reduction
is the split version (each chain halved before comparison), so a single
slowly-drifting chain is also flagged.
"""

import numpy as np

MIN_DRAWS = 4   # draws per chain below which ESS and R-hat are refused


def _autocovariance(x):
    """Biased autocovariance function of a 1-d series via FFT."""
    n = len(x)
    x = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()   # zero-pad to avoid circular wrap
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n].real
    return acov / n


def ess(chains):
    """Effective sample size from an (M, N) array of chains.

    Combines within-chain autocovariances with the between-chain variance
    (so stuck-apart chains shrink the answer), sums paired autocorrelations
    until the first negative pair, enforces Geyer's monotone decrease, and
    caps the result at the total draw count.
    """
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    m, n = chains.shape
    if n < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} draws per chain")

    chain_means = chains.mean(axis=1)
    chain_vars = chains.var(axis=1, ddof=1)
    w = chain_vars.mean()
    var_plus = w * (n - 1) / n
    if m > 1:
        var_plus += chain_means.var(ddof=1)
    if var_plus <= 0 or not np.isfinite(var_plus):
        raise ValueError("effective sample size undefined for a constant chain")

    acov = np.mean([_autocovariance(c) for c in chains], axis=0)
    rho = 1.0 - (w - acov) / var_plus
    rho[0] = 1.0

    # Geyer: sum adjacent pairs, stop at the first negative, force monotone
    max_pairs = (n - 1) // 2
    pair_sums = rho[1:2 * max_pairs + 1:2] + rho[2:2 * max_pairs + 1:2]
    total = 0.0
    running_min = np.inf
    for s in pair_sums:
        if s < 0:
            break
        running_min = min(running_min, s)
        total += running_min
    tau = max(1.0 + 2.0 * total, 1.0 / (m * n))
    return float(min(m * n / tau, m * n))


def split_rhat(chains):
    """Split potential scale reduction factor from an (M, N) array."""
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    m, n = chains.shape
    if n < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} draws per chain")
    half = n // 2
    split = np.vstack([chains[:, :half], chains[:, n - half:n]])
    sm, sn = split.shape
    w = split.var(axis=1, ddof=1).mean()
    if w <= 0 or not np.isfinite(w):
        raise ValueError("scale reduction undefined: zero within-chain variance")
    b = sn * split.mean(axis=1).var(ddof=1)
    var_plus = w * (sn - 1) / sn + b / sn
    return float(np.sqrt(var_plus / w))


def efficiency_report(chain_list):
    """Summarise a list of ChainDraws into BenchRecord's five metrics.

    Only continuous parameters are considered, each as one C-contiguous
    (M, N) block.  `time_per_min_ess` is total wall time (warmup plus
    sampling, summed over chains) divided by the minimum effective
    sample size across parameters.
    """
    blocks = np.ascontiguousarray(
        np.stack([c.draws for c in chain_list]).transpose(2, 0, 1))
    min_ess = min(ess(b) for b in blocks)
    total_time = sum(c.wall_time for c in chain_list)
    return {
        "comp_time_s": float(total_time),
        "min_ess": float(min_ess),
        "time_per_min_ess": float(total_time / min_ess),
        "max_rhat": float(max(split_rhat(b) for b in blocks)),
        "divergences": int(sum(c.divergences for c in chain_list)),
    }
