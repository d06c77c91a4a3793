"""Streaming robust regression with geometrically decaying step-size SGD."""

from .config import ConfigError, ExperimentConfig, load_config, validate_config
from .corruption import (
    AdditiveOblivious,
    Gaussian,
    NoCorruption,
    ResidualSignAdversary,
    SignFlip,
    Uniform,
)
from .datasets import (
    DatasetMatrix,
    evaluate_clean_loss,
    least_squares_baseline,
    load_csv,
)
from .drift import (
    DriftParams,
    DriftWindowError,
    HittingReport,
    drift_params,
    find_nonvacuous_hitting_config,
    hitting_bound,
    mc_drift_c2,
    mc_drift_linear_term,
    mc_hitting_probability,
    theorem_error_bound,
    theorem_failure_probability,
)
from .experiment import aggregate_mean, run_experiment, run_sweep
from .measurement import (
    CtildeEstimate,
    DatasetRows,
    GaussianSphere,
    NormalizedIIDSubGaussian,
    NormalizedRademacher,
    estimate_ctilde,
    exact_sphere_constant,
)
from .results import emit_plot, emit_results, read_results_csv
from .solvers import (
    ParamRecommendation,
    SolverSpec,
    StreamSpec,
    Trajectory,
    recommend_G,
    recommend_lambda,
    run_batch,
)

__version__ = "0.1.0"
