"""benchmark/ab.py, the in-process A/B timing tool, run on `src` against
itself: both sides draw the same chain, so their final states agree."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

from margmcmc.simulate import get_scenario

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
ARMS = [(sid, method) for sid in ("ds", "two-comp-1")
        for method in get_scenario(sid).model().methods
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
