"""Per-layer metrics from a traced pass.

Every metric is a ratio measured where the work happens: counts come from
the wrapped calls, times from the spans' self or total time.  See
DESIGN.md for the end-to-end metric each one should move.
"""

import numpy as np

ARMS = ("nuts-marginal", "gibbs-full", "gibbs-full-restricted",
        "gibbs-marginal")
GRAD = {"mixture": "mixture.log_post_grad_u",
        "dawid-skene": "dawid_skene.log_post_grad_u"}


def _per(num, den, scale=1.0):
    return num / den * scale if den else None


def iterations(runs, method):
    return sum(r.record.chains * r.record.iterations for r in runs
               if r.record.method == method)


def arm_metrics(runs, method):
    """Exact factors of an arm from a pass's records (untraced is fine)."""
    recs = [r.record for r in runs if r.record.method == method]
    if not recs:
        return {}
    kept = [r.chains * (r.iterations - r.warmup) for r in recs]
    return {
        f"ess_per_iter.{method}": float(np.median(
            [r.min_ess / k for r, k in zip(recs, kept)])),
        f"rhat_max.{method}": max(r.max_rhat for r in recs),
    }


def layer_metrics(tracer, traced_runs, untraced_runs, model_kind):
    """Issue-named per-layer metrics; a value is None where the layer did
    not run on this workload."""
    t = tracer
    m = {}
    us = 1e6

    for name in GRAD.values():
        n, _, self_s = t.totals(name)
        prefix = name.split(".")[0]
        m[f"{prefix}.grad_calls"] = n
        m[f"{prefix}.grad_us"] = _per(self_s, n, us)
    n, _, self_s = t.totals(GRAD[model_kind])
    m["model.grad_calls"] = n
    m["model.grad_us"] = _per(self_s, n, us)

    nuts_recs = t.records_of("nuts-marginal")
    stats = [t.nuts[r] for r in nuts_recs if r in t.nuts]
    trans = sum(s.transitions for s in stats)
    leap, leap_s, _ = t.totals(GRAD[model_kind], parent="nuts.transition")
    _, trans_s, _ = t.totals("nuts.transition")
    n_chains = sum(r.record.chains for r in traced_runs
                   if r.record.method == "nuts-marginal")
    _, search_s, _ = t.totals("nuts.find_reasonable_step_size")
    m["nuts.leapfrog_per_iter"] = _per(leap, trans)
    m["nuts.tree_depth_mean"] = _per(sum(s.depth_sum for s in stats), trans)
    m["nuts.accept_stat_mean"] = _per(sum(s.accept_sum for s in stats), trans)
    m["nuts.divergences"] = sum(s.divergences for s in stats)
    m["nuts.step_search_s"] = _per(search_s, n_chains)
    m["nuts.self_us_per_leapfrog"] = _per(trans_s - leap_s, leap, us)

    for method in ARMS[1:]:
        recs = t.records_of(method)
        if not recs:
            continue
        iters = iterations(traced_runs, method)
        sweep_s = sum(r.record.comp_time_s for r in untraced_runs
                      if r.record.method == method)
        moves, _, _ = t.totals("gibbs.slice_move", records=recs)
        evals, eval_s, _ = t.totals("gibbs.slice_eval", records=recs)
        z_calls, _, _ = t.totals("gibbs.update_z_block", records=recs)
        m[f"gibbs.sweep_ms.{method}"] = _per(
            sweep_s, iterations(untraced_runs, method), 1e3)
        m[f"gibbs.slice_moves_per_iter.{method}"] = _per(moves, iters)
        m[f"gibbs.slice_evals_per_move.{method}"] = _per(evals, moves)
        m[f"gibbs.slice_eval_us.{method}"] = _per(eval_s, evals, us)
        m[f"evals_per_iter.{method}"] = _per(evals + z_calls, iters)

    moves, _, move_self = t.totals("gibbs.slice_move")
    m["gibbs.slice_self_us"] = _per(move_self, moves, us)
    z_calls, z_s, _ = t.totals("gibbs.update_z_block")
    m["gibbs.z_update_us"] = _per(z_s, z_calls, us)
    _, pi_s, _ = t.totals("gibbs.update_pi_conjugate")
    _, theta_s, _ = t.totals("gibbs.update_theta_conjugate")
    m["gibbs.conjugate_us"] = _per(pi_s + theta_s,
                                   iterations(traced_runs, "gibbs-full"), us)

    nuts_iters = iterations(traced_runs, "nuts-marginal")
    if nuts_iters:
        grads, _, _ = t.totals(GRAD[model_kind], records=nuts_recs)
        m["evals_per_iter.nuts-marginal"] = _per(grads, nuts_iters)

    for name in ("constrain_simplex", "grad_simplex",
                 "constrain_simplex_rows", "grad_simplex_rows"):
        n, _, self_s = t.totals(f"transforms.{name}")
        m[f"transforms.{name}_calls"] = n
        m[f"transforms.{name}_us"] = _per(self_s, n, us)
    n, _, self_s = t.totals("stats.lse_rows")
    m["stats.lse_rows_calls"] = n
    m["stats.lse_rows_us"] = _per(self_s, n, us)

    n_rec = len(traced_runs)
    m["diagnostics.report_s"] = _per(
        t.totals("diagnostics.efficiency_report")[1], n_rec)
    m["simulate.gen_s"] = _per(t.totals("simulate.gen_dataset")[1], n_rec)
    m["harness.record_overhead_s"] = _per(
        t.totals("harness.run_record")[2], n_rec)
    return m


def lse_by_parent(tracer):
    out = {}
    for (_, name, parent), (c, _, s) in tracer.agg.items():
        if name == "stats.lse_rows":
            acc = out.setdefault(parent, [0, 0.0])
            acc[0] += c
            acc[1] += s
    return {p: (c, s / c * 1e6) for p, (c, s) in sorted(out.items())}


def accounting(tracer, traced_runs):
    """Per arm: (summed self time inside chains, share of it in named
    layers below the chain span, the arm's traced comp_time_s)."""
    out = {}
    for method in ARMS:
        recs = tracer.records_of(method)
        if not recs:
            continue
        chain_self = tracer.chain_self_s(recs)
        _, _, bare = tracer.totals("harness.run_chain", records=recs)
        comp = sum(r.record.comp_time_s for r in traced_runs
                   if r.record.method == method)
        out[method] = (chain_self, (chain_self - bare) / chain_self, comp)
    return out
