"""Asymptotic lower confidence bounds for model-free variable importance.

The package infers how much a covariate (or group of covariates) X adds
to the prediction of a response Y beyond the remaining covariates Z,
assuming the conditional law of X given Z is known or modeled. It
provides delta-method lower confidence bounds for the mMSE gap and, for
binary responses, the mean absolute conditional mean (MACM) gap, with
exact-moment, Monte Carlo, importance-weighted, and co-sufficient
(sufficient-statistic-conditional) variants, plus covariate-model
simulators, regression fitters, and a coverage-study harness.
"""

__version__ = "0.1.0"

from .core import (ConfidenceLevel, Dataset, LcbReport, SplitDataset,
                   delta_method_se, normal_cdf, normal_quantile,
                   sample_mean_cov, split)
from .covariates import (Ar1Model, CopulaModel, CovariateModel,
                         DiscreteMarkovChain, GaussianLinearModel, NullCopies,
                         model_from_json)
from .errors import (DegenerateLabelsError, FloodgateError, ShapeError,
                     SingularDesignError, SizeError,
                     UnsupportedClosedFormError, ValidationError)
from .regression import (CustomRegression, CvConfig, LinearWorkingRegression,
                         WorkingRegression, fit_lasso, fit_logistic, fit_ols,
                         fit_ridge, ols_oracle_lcb, regression_from_json)
from .mmse import (FloodgateConfig, conditional_moments, floodgate_lcb,
                   floodgate_lcb_scale_free, floodgate_lcb_weighted,
                   trivial_ucb, zero_out_transform)
from .macm import MacmConfig, macm_gap_enumerate, macm_gap_oracle, macm_lcb
from .cosufficient import (cosufficient_lcb, dmc_conditional_resample,
                           gaussian_conditional_resample)
from .simulate import (ExperimentResult, ExperimentSpec, MethodSpec,
                       MuStarSpec, build_mu_star, generate_replicate,
                       oracle_values, run_experiment)

__all__ = [name for name in dir() if not name.startswith("_")]
