"""Simulation and estimation toolkit for a three-state deteriorating system
under perfect condition-based maintenance."""

from .config import ConfigError, ModelConfig, parse_config, serialize_config
from .estimators import (
    DegenerateDataError,
    EstimateReport,
    NonConvergenceError,
    ObservedData,
    OutOfRangeError,
    asymptotic_estimate,
    asymptotic_estimates,
    censored_log_likelihood,
    invert_failure_probability,
    invert_mean_inspections,
    mle_estimate,
)
from .formulas import (
    CovarianceBundle,
    CycleMoments,
    Sensitivities,
    count_rate_covariance,
    cycle_moments,
    estimator_covariance,
    failure_probability,
    mean_inspections,
    parameter_sensitivities,
)
from .laws import DamageLaw, InspectionLaw, SaneLaw, laplace_jet
from .oracle import verification_rows
from .simulator import (
    CountSnapshot,
    CycleRecord,
    CycleBatch,
    counts_at_times,
    csv_blocks,
    horizon_blocks,
    simulate_cycle,
    simulate_horizon,
)

__version__ = "0.36.0"

__all__ = [
    "ConfigError",
    "CountSnapshot",
    "CovarianceBundle",
    "CycleMoments",
    "CycleBatch",
    "CycleRecord",
    "DamageLaw",
    "DegenerateDataError",
    "EstimateReport",
    "InspectionLaw",
    "ModelConfig",
    "NonConvergenceError",
    "ObservedData",
    "OutOfRangeError",
    "SaneLaw",
    "Sensitivities",
    "asymptotic_estimate",
    "asymptotic_estimates",
    "censored_log_likelihood",
    "count_rate_covariance",
    "counts_at_times",
    "csv_blocks",
    "cycle_moments",
    "estimator_covariance",
    "failure_probability",
    "horizon_blocks",
    "invert_failure_probability",
    "invert_mean_inspections",
    "laplace_jet",
    "mean_inspections",
    "mle_estimate",
    "parameter_sensitivities",
    "parse_config",
    "serialize_config",
    "simulate_cycle",
    "simulate_horizon",
    "verification_rows",
]
