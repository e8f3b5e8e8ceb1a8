"""MCMC benchmark for marginalised versus full discrete-latent models.

Gaussian mixtures and the Dawid-Skene rating model, sampled with Gibbs
variants and NUTS, with ESS / R-hat diagnostics and a benchmark harness.
"""

from .dawid_skene import DawidSkeneModel, DSData, DSParams, ds_beta_matrix
from .diagnostics import efficiency_report, ess, split_rhat
from .gibbs import SliceError, slice_sample_1d
from .harness import (METHODS, BenchRecord, ChainDraws, RunSpec, run_chain,
                      run_matrix, run_record, summarise)
from .mixture import MixtureData, MixtureModel, MixtureParams
from .simulate import (DSScenario, MixtureScenario, gen_dataset,
                       get_scenario, scenario_catalog)
from .stats import make_rng

__version__ = "1.0.0"

__all__ = [
    "BenchRecord", "ChainDraws", "DSData", "DSParams", "DSScenario",
    "DawidSkeneModel", "METHODS", "MixtureData", "MixtureModel",
    "MixtureParams", "MixtureScenario", "RunSpec", "SliceError",
    "ds_beta_matrix", "efficiency_report", "ess", "gen_dataset",
    "get_scenario", "make_rng", "run_chain", "run_matrix", "run_record",
    "scenario_catalog", "slice_sample_1d", "split_rhat", "summarise",
]
