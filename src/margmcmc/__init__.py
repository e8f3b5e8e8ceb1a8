"""MCMC benchmark for marginalised versus full discrete-latent models.

Gaussian mixtures and the Dawid-Skene rating model, sampled with Gibbs
variants and NUTS, with ESS / R-hat diagnostics and a benchmark harness.
"""

from .dawid_skene import (DawidSkeneModel, DSData, DSParams, ds_beta_matrix,
                          ds_full_log_joint, ds_marginal_log_joint,
                          ds_marginal_log_lik, ds_z_full_conditional)
from .diagnostics import efficiency_report, ess, split_rhat
from .draws import ChainDraws, stack_param_chains
from .gibbs import SliceError, gibbs_run, slice_sample_1d
from .harness import (METHODS, BenchRecord, RunSpec, default_spec_list,
                      methods_for_scenario, run_matrix, run_record, summarise)
from .mixture import (MixtureData, MixtureModel, MixtureParams,
                      mix_full_log_joint, mix_marginal_log_joint,
                      mix_marginal_log_lik, mix_z_full_conditional)
from .nuts import nuts_run
from .simulate import (DSScenario, MixtureScenario, gen_dataset,
                       get_scenario, read_dataset, scenario_catalog,
                       write_dataset)
from .stats import make_rng

__version__ = "1.0.0"

__all__ = [
    "BenchRecord", "ChainDraws", "DSData", "DSParams", "DSScenario",
    "DawidSkeneModel", "METHODS", "MixtureData", "MixtureModel",
    "MixtureParams", "MixtureScenario", "RunSpec", "SliceError",
    "default_spec_list", "ds_beta_matrix", "ds_full_log_joint",
    "ds_marginal_log_joint", "ds_marginal_log_lik", "ds_z_full_conditional",
    "efficiency_report", "ess", "gen_dataset", "get_scenario", "gibbs_run",
    "make_rng", "methods_for_scenario", "mix_full_log_joint",
    "mix_marginal_log_joint", "mix_marginal_log_lik", "mix_z_full_conditional",
    "nuts_run", "read_dataset", "run_matrix", "run_record", "scenario_catalog",
    "slice_sample_1d", "split_rhat", "stack_param_chains", "summarise",
    "write_dataset",
]
