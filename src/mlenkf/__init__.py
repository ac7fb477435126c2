"""Multilevel ensemble Kalman filtering for spectrally discretized SPDEs.

Coupled coarse/fine particle pairs across a resolution ladder feed a
telescoping estimate of the covariance action, which drives a perturbed
observation Kalman update.  The single-level EnKF is the same engine
with one level, and the exact Kalman recursion serves as the reference.
See the README for the experiment protocol and the CLI.
"""

from .spectral import LevelHierarchy, eigenvalues
from .rng import RngKey
from .model import ModelConfig, g_factor
from .filters import (
    GaussianState,
    MultilevelEnsemble,
    ObservationModel,
    PairEnsemble,
    compute_R_ml,
    empirical_qoi,
    kalman_step,
    ml_gain,
    ml_predict,
    ml_update,
    mlenkf_step,
    positive_part,
    sample_cov_action,
)
from .experiment import (
    ExperimentConfig,
    RunRecord,
    Schedule,
    build_example,
    estimate_mse,
    fit_loglog_slope,
    make_schedule,
    run_experiment,
    synthesize_truth_and_obs,
    theoretical_cost,
)

__version__ = "0.1.0"
