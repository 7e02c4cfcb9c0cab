"""Bayesian dose-response surface modelling for two-drug combination screens.

Fits a hierarchical model where the viability surface is a product of two
log-logistic monotherapy curves plus a spline-driven, link-bounded interaction
term, sampled with an adaptive Metropolis-within-Gibbs scheme. Ships the
classical Bliss/HSA/Loewe/ZIP reference surfaces, posterior summaries (DSS,
rVUS, bi-dimensional EC50, LPML) and a synthetic-plate generator.
"""

from .baselines import (BASELINE_METHODS, MonoFit, baseline_delta, bliss_surface, fit_2ll,
                        fit_monotherapies, hsa_surface, loewe_surface, zip_surface)
from .data import LogConcGrid, PlateDataset, SurfaceGrid
from .errors import (CombofitError, FitConvergenceError, InitializationError,
                     NumericError, ValidationError)
from .mcmc import BLOCK_NAMES, AdaptiveState, ChainConfig, Posterior, run_chain, run_chains
from .model import (GammaPrior, HalfCauchyPrior, InverseGammaPrior, PriorSpec, curve_values,
                    initial_state)
from .simulate import (SimScenario, interaction_field, normal_cdf,
                       reference_grid, sample_plate, truth_delta, truth_p0)
from .splines import SplineSpec, basis_matrix, penalty_precision
from .summaries import (LpmlStream, SummaryReport, bi_ec50, combination_columns,
                        dss_scores, fine_mean_surface, mean_heights, mse_surface,
                        summarize_chains)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveState", "BASELINE_METHODS", "BLOCK_NAMES", "ChainConfig", "CombofitError",
    "FitConvergenceError", "GammaPrior", "HalfCauchyPrior", "InitializationError",
    "InverseGammaPrior", "LogConcGrid", "LpmlStream", "MonoFit", "NumericError",
    "PlateDataset", "Posterior", "PriorSpec", "SimScenario", "SplineSpec", "SummaryReport",
    "SurfaceGrid", "ValidationError", "baseline_delta", "basis_matrix", "bi_ec50",
    "bliss_surface", "combination_columns", "curve_values", "dss_scores",
    "fine_mean_surface", "fit_2ll", "fit_monotherapies", "hsa_surface", "initial_state",
    "interaction_field", "loewe_surface", "mean_heights", "mse_surface",
    "normal_cdf", "penalty_precision", "reference_grid", "run_chain", "run_chains",
    "sample_plate", "summarize_chains", "truth_delta", "truth_p0", "zip_surface",
]
