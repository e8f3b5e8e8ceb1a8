"""End-to-end acceptance suite.

Nine criteria, one test each, every test printing a single PASS/FAIL
line to the real stdout (bypassing capture) so the outcome is visible
in any test log.

Criterion 8 consumes the full benchmark matrix at the standard protocol
(3 chains x 3000 iterations, 1500 warmup, 5 replicates, all 13
scenarios).  The matrix takes hours of CPU, so the results file is
produced ahead of time with

    margmcmc run --seed 42 --out benchmark/results.csv

and read from `benchmark/results.csv` (override with the
MARGMCMC_RESULTS environment variable).  If the file is absent the test
runs the matrix itself.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from margmcmc import dawid_skene as dsm
from margmcmc import harness as hz
from margmcmc import mixture as mx
from margmcmc.cli import build_parser, run_specs
from margmcmc.diagnostics import ess, split_rhat
from margmcmc.gibbs import update_z_block
from margmcmc.simulate import gen_dataset, get_scenario
from margmcmc.stats import make_rng
from oracles import (ds_full_log_joint, ds_log_prior, ds_marginal_log_lik,
                     ds_marginal_log_post_u, label_probs, mix_full_log_joint,
                     mix_log_prior, mix_marginal_log_lik,
                     mix_marginal_log_post_u, stack_param_chains)

RESULTS_PATH = Path(os.environ.get(
    "MARGMCMC_RESULTS",
    Path(__file__).resolve().parent.parent / "benchmark" / "results.csv"))

PROTOCOL = dict(chains=3, iterations=3000, warmup=1500)


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def protocol_chains(model, data, method, seed):
    chains = []
    for c in range(PROTOCOL["chains"]):
        rng = make_rng(seed, c)
        chains.append(hz.run_chain(model, data, method,
                                   PROTOCOL["iterations"],
                                   PROTOCOL["warmup"], rng))
    return chains


def test_criterion_1_mixture_marginalisation():
    t0 = time.time()
    rng = make_rng(1000)
    worst = 0.0
    for k in (2, 3):
        model = mx.MixtureModel(k)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            data = mx.MixtureData(rng.normal(0, 4, size=n))
            params = model.init_params(rng)
            brute = logsumexp([
                mix_full_log_joint(data, np.array(z), params)
                for z in itertools.product(range(k), repeat=n)])
            brute -= mix_log_prior(params)
            got = mix_marginal_log_lik(data, params)
            worst = max(worst, abs(got - brute) / max(abs(brute), 1e-300))
    elapsed = time.time() - t0
    report("criterion 1 (mixture marginalisation vs enumeration)",
           worst < 1e-10 and elapsed < 10.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_ds_marginalisation():
    t0 = time.time()
    rng = make_rng(2000)
    worst = 0.0
    for _ in range(50):
        i_n = int(rng.integers(1, 5))
        j_n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        data = dsm.DSData(rng.integers(0, k, size=(i_n, j_n)), k)
        model = dsm.DawidSkeneModel(j_n, k)
        params = model.init_params(rng)
        lp = ds_log_prior(params)
        brute = logsumexp([
            ds_full_log_joint(data, np.array(z), params) - lp
            for z in itertools.product(range(k), repeat=i_n)])
        got = ds_marginal_log_lik(data, params)
        worst = max(worst, abs(got - brute) / max(abs(brute), 1e-300))
    elapsed = time.time() - t0
    report("criterion 2 (rating-model marginalisation vs enumeration)",
           worst < 1e-10 and elapsed < 10.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_gradient_correctness():
    t0 = time.time()
    rng = make_rng(3000)
    h = 1e-5
    worst = 0.0

    def check(logp, grad, dim, n_points, scale=1.0):
        nonlocal worst
        for _ in range(n_points):
            u = rng.normal(size=dim) * scale
            g = grad(u)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                num = (logp(u + e) - logp(u - e)) / (2 * h)
                denom = max(abs(num), abs(g[i]), 1.0)
                worst = max(worst, abs(g[i] - num) / denom)

    data = mx.MixtureData(rng.normal(0, 4, size=30))
    for k in (2, 3):
        check(lambda u, k=k: mix_marginal_log_post_u(data, u, k),
              lambda u, k=k: mx.MixtureModel(k).log_post_grad_u(data, u)[1],
              2 * k, 10)

    j_n, k = 3, 3
    ds_data = dsm.DSData(rng.integers(0, k, size=(20, j_n)), k)
    ds_model = dsm.DawidSkeneModel(j_n, k)
    check(lambda u: ds_marginal_log_post_u(ds_model, ds_data, u),
          lambda u: ds_model.log_post_grad_u(ds_data, u)[1],
          ds_model.n_dim, 20, scale=0.5)
    elapsed = time.time() - t0
    report("criterion 3 (analytic gradients vs finite differences)",
           worst < 1e-6 and elapsed < 5.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_gibbs_exactness():
    t0 = time.time()
    rng = make_rng(4000)
    model = mx.MixtureModel(2)
    data = mx.MixtureData(np.array([-1.5, -0.2, 0.3, 1.1, 2.4]))
    params = mx.MixtureParams(mu=np.array([-1.0, 1.0]), sigma=1.2,
                              pi=np.array([0.55, 0.45]))
    exact = label_probs(model.z_log_weights(data, params))[1]
    n = 200_000
    hits = np.zeros(5)
    for _ in range(n):
        hits += update_z_block(model, data, params, rng)
    freq = hits / n
    se = np.sqrt(exact * (1 - exact) / n)
    dev = np.abs(freq - exact) / se
    elapsed = time.time() - t0
    report("criterion 4 (latent-block Gibbs vs exact conditionals)",
           bool(np.all(dev < 3.0)) and elapsed < 60.0,
           f"max dev {dev.max():.2f} sigma, {elapsed:.1f}s")


def test_criterion_5_cross_sampler_agreement():
    t0 = time.time()
    scenario = get_scenario("two-comp-1")
    data, _ = gen_dataset(scenario, 1, 42)
    model = mx.MixtureModel(2)
    params = ("mu[1]", "mu[2]", "sigma", "pi[1]")
    methods = ("nuts-marginal", "gibbs-full", "gibbs-marginal")
    stats = {}
    worst_rhat = 0.0
    for m_i, method in enumerate(methods):
        chains = protocol_chains(model, data, method, 5000 + m_i)
        stacked = stack_param_chains(chains)
        per = {}
        for p in params:
            arr = stacked[p]
            per[p] = (arr.mean(), np.sqrt(arr.var() / ess(arr)))
            worst_rhat = max(worst_rhat, split_rhat(arr))
        stats[method] = per
    worst_z = 0.0
    for a, b in itertools.combinations(methods, 2):
        for p in params:
            ma, sa = stats[a][p]
            mb, sb = stats[b][p]
            worst_z = max(worst_z, abs(ma - mb) / np.sqrt(sa**2 + sb**2))
    elapsed = time.time() - t0
    report("criterion 5 (cross-sampler posterior agreement)",
           worst_z < 3.0 and worst_rhat < 1.1 and elapsed < 300.0,
           f"max |dmean|/mcse {worst_z:.2f}, max rhat {worst_rhat:.3f}, "
           f"{elapsed:.0f}s")


def test_criterion_6_parameter_recovery():
    # Known discrepancy: the overlapping scenarios (means at +-2.5, so 5
    # apart, with sd 2) do not identify the component means to +-0.5 at
    # n=200.  On two-comp-3 the exact posterior sds of mu are 1.22 and
    # 1.42, so the bound sits inside one posterior sd.  On two-comp-4 the
    # exact posterior mean of mu[1] is itself -3.020, 0.52 from the truth,
    # so that reading is the data draw, not a sampler fault (grid
    # quadrature from README's priors; see ROADMAP.md).  The check is
    # reported per scenario and fails honestly.
    t0 = time.time()
    worst = 0.0
    details = []
    for sid in ("two-comp-1", "two-comp-2", "two-comp-3", "two-comp-4"):
        scenario = get_scenario(sid)
        data, _ = gen_dataset(scenario, 1, 42)
        model = mx.MixtureModel(2)
        chains = protocol_chains(model, data, "nuts-marginal", 6000)
        stacked = stack_param_chains(chains)
        err = max(abs(stacked[f"mu[{i+1}]"].mean() - mu_true)
                  for i, mu_true in enumerate(scenario.mu))
        details.append(f"{sid} {err:.2f}")
        worst = max(worst, err)
    elapsed = time.time() - t0
    report("criterion 6 (mean recovery on two-component scenarios)",
           worst < 0.5 and elapsed < 600.0,
           f"max |mean err| per scenario: {', '.join(details)}; {elapsed:.0f}s")


def test_criterion_7_diagnostics_oracles():
    t0 = time.time()
    rng = make_rng(7000)
    iid = rng.standard_normal((1, 10_000))
    ok_iid = abs(ess(iid) / 10_000 - 1.0) < 0.15

    n = 100_000
    rho = 0.9
    x = np.empty(n)
    x[0] = rng.standard_normal() / np.sqrt(1 - rho * rho)
    eps = rng.standard_normal(n)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + eps[i]
    ok_ar1 = abs(ess(x[None, :]) / (n / 19.0) - 1.0) < 0.2

    a = rng.standard_normal(1000)
    b = rng.standard_normal(1000) + 10.0
    ok_rhat = split_rhat(np.vstack([a, b])) > 3.0
    elapsed = time.time() - t0
    report("criterion 7 (diagnostics oracles)",
           ok_iid and ok_ar1 and ok_rhat and elapsed < 30.0,
           f"iid {ess(iid):.0f}/10000, ar1 {ess(x[None, :]):.0f}/"
           f"{n / 19:.0f}, {elapsed:.1f}s")


def _load_or_run_matrix():
    if RESULTS_PATH.exists():
        return hz.read_records(RESULTS_PATH), True
    records = hz.run_matrix(run_specs(build_parser().parse_args(
        ["run", "--seed", "42"])))
    return [r.row() | {
        "min_ess": r.min_ess, "max_rhat": r.max_rhat,
        "comp_time_s": r.comp_time_s,
        "time_per_min_ess": r.time_per_min_ess,
        "replicate": r.replicate, "chains": r.chains,
        "iterations": r.iterations, "warmup": r.warmup,
    } for r in records], False


def test_criterion_8_protocol_reproduction():
    rows, cached = _load_or_run_matrix()
    n_expected = 4 * 4 * 5 + 8 * 4 * 5 + 1 * 3 * 5
    ok_count = len(rows) == n_expected
    ok_status = all(r["status"] == "ok" for r in rows)
    ok_protocol = all(r["chains"] == 3 and r["iterations"] == 3000
                      and r["warmup"] == 1500 for r in rows)
    summary = hz.summarise(rows)
    cells = {(e["scenario_id"], e["method"]) for e in summary}
    ok_cells = len(cells) == 51 and all(
        not e["gap"] and all(e[f"{m}_median"] is not None for m in
                             ("comp_time_s", "min_ess",
                              "time_per_min_ess", "max_rhat"))
        for e in summary)

    # trend check: restricted-sampler full model worst on the two-component
    # scenarios (reported; a miss is a documented discrepancy, not a failure)
    by_cell = {(e["scenario_id"], e["method"]): e for e in summary}
    trend_hits = 0
    for i in range(1, 5):
        sid = f"two-comp-{i}"
        restricted = by_cell[(sid, "gibbs-full-restricted")]
        full = by_cell[(sid, "gibbs-full")]
        if restricted["time_per_min_ess_median"] > \
                full["time_per_min_ess_median"]:
            trend_hits += 1
    print(f"ACCEPTANCE criterion 8 trend check: restricted-full slower than "
          f"full on {trend_hits}/4 two-component scenarios "
          f"({'consistent with' if trend_hits >= 3 else 'DISCREPANT from'} "
          f"the expected ordering)", flush=True)

    report("criterion 8 (full benchmark matrix at protocol)",
           ok_count and ok_status and ok_protocol and ok_cells,
           f"records {len(rows)}/{n_expected}, cells {len(cells)}/51, "
           f"source {'cached run' if cached else 'in-test run'}")


def test_criterion_9_record_determinism():
    spec = hz.RunSpec("two-comp-1", "gibbs-full", master_seed=42, **PROTOCOL)
    fresh = hz.run_record(spec, 1)
    ok = fresh.status == "ok"
    detail = f"re-run min_ess {fresh.min_ess:.1f}"
    if RESULTS_PATH.exists():
        rows = [r for r in hz.read_records(RESULTS_PATH)
                if r["scenario_id"] == "two-comp-1"
                and r["method"] == "gibbs-full" and r["replicate"] == 1]
        if rows:
            logged = rows[0]
            ok = ok and fresh.min_ess == logged["min_ess"] \
                and fresh.max_rhat == logged["max_rhat"]
            detail += (f", logged {logged['min_ess']:.1f}, "
                       f"exact match {fresh.min_ess == logged['min_ess']}")
    else:
        again = hz.run_record(spec, 1)
        ok = ok and fresh.min_ess == again.min_ess \
            and fresh.max_rhat == again.max_rhat
        detail += ", compared against immediate re-run"
    report("criterion 9 (benchmark record determinism)", ok, detail)
