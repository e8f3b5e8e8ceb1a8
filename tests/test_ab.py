"""benchmark/ab.py, the in-process A/B timing tool, run on `src` against
itself: both sides draw the same chain, so their final states agree, and
each is the chain `harness.run_chain` runs."""

import argparse
import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

from margmcmc.harness import run_chain
from margmcmc.simulate import gen_dataset, get_scenario
from margmcmc.stats import make_rng

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
ALL_ARMS = [(sid, method) for sid in ("ds", "two-comp-1")
            for method in get_scenario(sid).model().methods]
ARMS = [(sid, method) for sid, method in ALL_ARMS
        if method.startswith("gibbs")]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location(
        "ab", ROOT / "benchmark" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [m for m in sys.modules
                 if m.split(".")[0] in ("margmcmc_a", "margmcmc_b")]:
        del sys.modules[name]


@pytest.mark.parametrize("scenario_id,method", ARMS,
                         ids=[f"{s}-{m}" for s, m in ARMS])
def test_src_against_itself(ab, capsys, scenario_id, method):
    result = ab.main([SRC, SRC, "--scenario", scenario_id, "--method", method,
                      "--rounds", "2", "--sweeps", "1", "--warmup", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == result
    assert "  final states bit-identical" in lines
    assert result["identical_final_state"]
    assert result["gain"] == round(1.0 - result["median_ratio"], 4)
    assert result["b_lower_in"].endswith(" of 2")


def test_different_draws_report_no_gain(ab, capsys, tmp_path):
    # a copy of src whose slice moves start from a wider interval draws
    # differently, so the tool reports no gain
    shutil.copytree(ROOT / "src" / "margmcmc", tmp_path / "margmcmc")
    gibbs = tmp_path / "margmcmc" / "gibbs.py"
    gibbs.write_text(gibbs.read_text().replace(
        "SLICE_WIDTH = 1.0\n", "SLICE_WIDTH = 2.0\n", 1))
    result = ab.main([SRC, str(tmp_path), "--scenario", "two-comp-1",
                      "--method", "gibbs-marginal", "--rounds", "2",
                      "--sweeps", "1", "--warmup", "0"])
    assert not result["identical_final_state"] and result["gain"] is None
    assert "no gain reported" in capsys.readouterr().out


@pytest.mark.parametrize("scenario_id,method", ALL_ARMS,
                         ids=[f"{s}-{m}" for s, m in ALL_ARMS])
def test_side_runs_the_harness_chain(ab, scenario_id, method):
    # a warmup below 150 opens no mass-matrix window, so a NUTS side's
    # warmup ends with the same frozen step size as run_chain's
    seed, warmup, kept = 3, 30, 4
    side = ab.Side(SRC, "margmcmc_a", argparse.Namespace(
        scenario=scenario_id, method=method, items=None, seed=seed,
        warmup=warmup))
    side.run(kept)
    scenario = get_scenario(scenario_id)
    data, _ = gen_dataset(scenario, 1, seed)
    chain = run_chain(scenario.model(), data, method, warmup + kept, warmup,
                      make_rng(seed, f"{scenario_id}|{method}|1|0"))
    assert side.final_state()[0] == chain.draws[-1].tobytes()
