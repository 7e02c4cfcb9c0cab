"""Bayesian dose-response surface modelling for two-drug combination screens.

Fits a hierarchical model where the viability surface is a product of two
log-logistic monotherapy curves plus a spline-driven, link-bounded interaction
term, sampled with an adaptive Metropolis-within-Gibbs scheme. Ships the
classical Bliss/HSA/Loewe/ZIP reference surfaces, posterior summaries (DSS,
rVUS, bi-dimensional EC50, LPML) and a synthetic-plate generator.
"""

from .baselines import (BASELINE_METHODS, MonoFit, ZipFit, baseline_delta,
                        baseline_surface, bliss_surface, fit_2ll,
                        fit_monotherapies, hsa_surface, loewe_surface, zip_surface)
from .data import LogConcGrid, PlateDataset, SurfaceGrid
from .errors import (CombofitError, FitConvergenceError, InitializationError,
                     NumericError, ValidationError)
from .mcmc import (BLOCK_NAMES, AdaptiveState, ChainConfig, PosteriorChain,
                   chain_from_draws, run_chain, run_chains,
                   variance_posterior_params)
from .model import (GammaPrior, HalfCauchyPrior, InverseGammaPrior,
                    ParameterState, PriorSpec, initial_state, interaction_surface,
                    link_g, log_likelihood, log_logistic_2ll, log_prior,
                    mean_surface, zero_interaction_surface)
from .simulate import (SimScenario, interaction_field, normal_cdf,
                       reference_grid, sample_plate, truth_delta, truth_p0)
from .splines import SplineSpec, basis_matrix, penalty_precision, tensor_eval
from .summaries import (SummaryReport, bi_ec50, combination_columns, dss,
                        fine_mean_surface, lpml, mse_surface, rvus,
                        summarize_chains)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveState", "BASELINE_METHODS", "BLOCK_NAMES", "ChainConfig",
    "CombofitError", "FitConvergenceError", "GammaPrior", "HalfCauchyPrior",
    "InitializationError", "InverseGammaPrior", "LogConcGrid", "MonoFit",
    "NumericError", "ParameterState", "PlateDataset", "PosteriorChain",
    "PriorSpec", "SimScenario", "SplineSpec", "SummaryReport", "SurfaceGrid",
    "ValidationError", "ZipFit", "baseline_delta", "baseline_surface",
    "basis_matrix", "bi_ec50", "bliss_surface", "chain_from_draws",
    "combination_columns", "dss",
    "fine_mean_surface", "fit_2ll", "fit_monotherapies", "hsa_surface",
    "initial_state", "interaction_field", "interaction_surface", "link_g",
    "loewe_surface", "log_likelihood", "log_logistic_2ll", "log_prior", "lpml",
    "mean_surface", "mse_surface", "normal_cdf", "penalty_precision",
    "reference_grid", "run_chain", "run_chains", "rvus", "sample_plate",
    "summarize_chains", "tensor_eval", "truth_delta", "truth_p0",
    "variance_posterior_params", "zero_interaction_surface", "zip_surface",
]
