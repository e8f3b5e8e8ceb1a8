"""Correctness gate and exact-count fingerprints for one benchmark pass.

The gate fails a record when
  * its status is not `ok`, a draw is not finite, or its split-R-hat
    exceeds `harness.RHAT_THRESHOLD`;
  * on the same dataset, a posterior mean differs from another arm's by
    more than `z_limit(n)` combined Monte Carlo standard errors, where n is
    the number of (parameter, arm pair) comparisons on that dataset and
    the limit is the Bonferroni two-sided normal quantile for a
    family-wise false-alarm rate of AGREE_ALPHA, times MCSE_ALLOWANCE:
    ESS from three short chains can be optimistic about twofold, which
    understates the MCSE by up to sqrt(2).  (Seen: z = 4.74 on a dataset
    where 20x longer chains agree to within 1 MCSE.);
  * (mixtures) a component mean lies more than TRUTH_SDS posterior sds
    from the value that generated the data.
"""

import hashlib
import itertools

import numpy as np
from scipy import special

AGREE_ALPHA = 1e-4
MCSE_ALLOWANCE = np.sqrt(2.0)
TRUTH_SDS = 5.0


def z_limit(n_comparisons):
    return MCSE_ALLOWANCE * float(-special.ndtri(AGREE_ALPHA
                                                 / (2.0 * n_comparisons)))


def record_id(rec):
    return f"{rec.scenario_id}|{rec.method}|seed{rec.seed}|r{rec.replicate}"


def draws_sha256(chains):
    h = hashlib.sha256()
    for chain in chains:
        h.update(np.ascontiguousarray(chain.draws, dtype=np.float64).tobytes())
        if chain.tree_depths is not None:
            h.update(np.ascontiguousarray(chain.tree_depths).tobytes())
    return h.hexdigest()


def _posterior_summaries(chains, ess):
    """param -> (mean, mcse, sd) from the stacked (chains, draws) arrays."""
    out = {}
    for j, name in enumerate(chains[0].param_names):
        arr = np.stack([c.draws[:, j] for c in chains])
        var = float(arr.var())
        out[name] = (float(arr.mean()), np.sqrt(var / ess(arr)), np.sqrt(var))
    return out


def check(runs, harness, diagnostics, simulate):
    """Return {record id: [failure reasons]} over a pass's RecordRuns."""
    failures = {}

    def fail(rid, reason):
        failures.setdefault(rid, []).append(reason)

    by_replicate = {}
    for run in runs:
        rec, rid = run.record, record_id(run.record)
        if rec.status != "ok":
            fail(rid, f"status {rec.status}"
                      + (f" ({run.error})" if run.error else ""))
            continue
        if not all(np.all(np.isfinite(c.draws)) for c in run.chains):
            fail(rid, "non-finite draws")
            continue
        if not rec.max_rhat <= harness.RHAT_THRESHOLD:
            fail(rid, f"split-R-hat {rec.max_rhat:.3f} > "
                      f"{harness.RHAT_THRESHOLD}")
        by_replicate.setdefault((rec.scenario_id, rec.seed, rec.replicate), {})[
            rec.method] = _posterior_summaries(run.chains, diagnostics.ess)

    for (sid, seed, rep), arms in sorted(by_replicate.items()):
        params = next(iter(arms.values())).keys()
        pairs = list(itertools.combinations(sorted(arms), 2))
        if pairs:
            limit = z_limit(len(params) * len(pairs))
            for a, b in pairs:
                for p in params:
                    ma, sa, _ = arms[a][p]
                    mb, sb, _ = arms[b][p]
                    z = abs(ma - mb) / np.hypot(sa, sb)
                    if not z <= limit:
                        reason = (f"{p}: mean {ma:.4g} vs {mb:.4g} in {a}/{b}"
                                  f", {z:.2f} MCSE > {limit:.2f}")
                        fail(f"{sid}|{a}|seed{seed}|r{rep}", reason)
                        fail(f"{sid}|{b}|seed{seed}|r{rep}", reason)
        scenario = simulate.get_scenario(sid)
        if scenario.kind == "mixture":
            for method, summ in arms.items():
                for k, mu_true in enumerate(scenario.mu):
                    mean, _, sd = summ[f"mu[{k + 1}]"]
                    if not abs(mean - mu_true) <= TRUTH_SDS * sd:
                        fail(f"{sid}|{method}|seed{seed}|r{rep}",
                             f"mu[{k + 1}] mean {mean:.3f} is more than "
                             f"{TRUTH_SDS:g} sd ({sd:.3f}) from truth {mu_true}")
    return failures


def fingerprint(runs, counts=None):
    """Exact, seed-determined quantities per record.

    `counts` (from a traced pass) adds per-record call and eval counts.
    """
    out = {}
    for run in runs:
        rec, rid = run.record, record_id(run.record)
        kept = rec.chains * (rec.iterations - rec.warmup)
        entry = {"draws_sha256": draws_sha256(run.chains),
                 "ess_per_iter": repr(rec.min_ess / kept)}
        if counts is not None:
            entry.update(counts.get(rid, {}))
        out[rid] = entry
    return out


def digest(fp):
    return hashlib.sha256(repr(sorted(
        (rid, sorted(v.items())) for rid, v in fp.items())).encode()).hexdigest()


def compare(reference, current):
    """Lines naming every fingerprint entry that moved."""
    moved = []
    for rid in sorted(set(reference) | set(current)):
        ref, cur = reference.get(rid, {}), current.get(rid, {})
        for key in sorted(set(ref) & set(cur)):
            if ref[key] != cur[key]:
                moved.append(f"{rid} {key}: {ref[key]} -> {cur[key]}")
        if not ref or not cur:
            moved.append(f"{rid}: {'new' if cur else 'missing'} record")
    return moved
