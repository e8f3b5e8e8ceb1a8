"""Write tests/quadrature_reference.json: the exact posteriors of three of
criterion 6's four two-component datasets (replicate 1, master seed 42),
by the grid quadrature of tests/quadrature.py.

    PYTHONPATH=src python tests/make_quadrature_reference.py

The file follows posteriordb's reference posteriors (Magnusson et al.
2024, "posteriordb: testing, benchmarking and developing Bayesian
inference algorithms"): one entry per posterior, naming the data it was
computed on, how it was computed, what it holds and the checks it
passed.  Here a posterior is a (scenario, replicate, master seed) cell;
its data are named by a sha256 of `x`, so a change to the generator
shows.  Each cell records the posterior mean and sd of mu[1], mu[2],
sigma and pi[1], the mass where min(pi) < quadrature.SMALL_PI (0 where
the box ends inside that cut), both grid sizes, the largest gap between
their means in posterior sds and the largest mass on one face of the
box.  `quadrature._integrate` raises if the gap exceeds AGREE_SDS or a
face FACE_MASS, so every written cell meets both bars.

two-comp-3 is left out: no grid tried meets the bars.  Its posterior
has a core both components share, narrow on every axis, and wings where
one component is near-empty (pi about 1/n, its mean following the
N(0, 10^2) prior out to about +-40), and one product grid must resolve
both.  Grids of up to 24 million points, some with sinh-stretched axes
or mu_2 - mu_1 on a log axis, read mu[1]'s mean -1.51 to -1.57 and its
sd 1.08 to 1.35, the two sizes of one run 0.008-0.12 posterior sd
apart.  ROADMAP item 2's long MCMC runs are the reference to build for
it.

Pytest does not collect this file.  It takes under a minute on one core.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import scipy

import quadrature
from margmcmc.simulate import gen_dataset, get_scenario

OUT = Path(__file__).with_name("quadrature_reference.json")
CELLS = ("two-comp-1", "two-comp-2", "two-comp-4")
REPLICATE, MASTER_SEED = 1, 42
PARAMS = ("mu[1]", "mu[2]", "sigma", "pi[1]")


def x_sha256(x):
    """sha256 of the float64 data vector's bytes, little-endian."""
    return hashlib.sha256(np.asarray(x, dtype="<f8").tobytes()).hexdigest()


def cell(scenario_id):
    data, _ = gen_dataset(get_scenario(scenario_id), REPLICATE, MASTER_SEED)
    moments, (small, _), checks = quadrature.mix2_posterior(data.x)
    start, _, _, box_sds = quadrature.MIX_GRID
    return {
        "data": {"scenario": scenario_id, "replicate": REPLICATE,
                 "master_seed": MASTER_SEED, "n": len(data.x),
                 "x_sha256": x_sha256(data.x)},
        "posterior": {name: {"mean": moments[name][0],
                             "sd": moments[name][1]} for name in PARAMS},
        "small_pi_mass": small,
        "grid": {"coordinates": ["mu[1]", "mu[2]", "log sigma",
                                 "logit pi[1]"],
                 "start": start, "recentre": quadrature.RECENTRE,
                 "box_sds": box_sds, "sizes": checks["sizes"]},
        "checks": {"gap_sds": checks["gap_sds"],
                   "face_mass": checks["face_mass"]},
    }


def main():
    reference = {
        "name": "two-component mixtures, criterion 6",
        "inference": {"method": "grid quadrature (trapezoid rule)",
                      "model": "tests/quadrature.py mix2_log_joint, "
                               "written from README's priors"},
        "bars": {"agree_sds": quadrature.AGREE_SDS,
                 "face_mass": quadrature.FACE_MASS,
                 "small_pi": quadrature.SMALL_PI},
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "cells": {},
    }
    for scenario_id in CELLS:
        reference["cells"][scenario_id] = entry = cell(scenario_id)
        print(scenario_id, {k: round(v["mean"], 4)
                            for k, v in entry["posterior"].items()},
              entry["checks"], flush=True)
    OUT.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
