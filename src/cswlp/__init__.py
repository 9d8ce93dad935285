"""Weighted lp recovery of sparse signals from underdetermined linear
measurements, with support-estimate weighting, recovery-condition
calculators, experiment sweeps, and a blockwise audio pipeline."""

from .core import (
    CswlpError,
    DenseMatrix,
    Measurements,
    OracleInfeasibleError,
    RankDeficientError,
    RestrictedTransform,
    SignalVector,
    SolverDivergenceError,
    WeightVector,
    best_k_term,
    snr_db,
    weighted_lp_norm,
)
from .oracle import OracleResult, oracle_l0, oracle_weighted_lp
from .solver import SolverConfig, SolverTrace, smoothed_gradient, smoothed_objective, solve
from .theory import (
    delta_hat_lp,
    delta_hat_wl1,
    delta_hat_wlp,
    error_constants,
    proposition2_check,
    sufficient_condition_holds,
)

__version__ = "0.1.0"

__all__ = [
    "CswlpError",
    "DenseMatrix",
    "Measurements",
    "OracleInfeasibleError",
    "OracleResult",
    "RankDeficientError",
    "RestrictedTransform",
    "SignalVector",
    "SolverConfig",
    "SolverDivergenceError",
    "SolverTrace",
    "WeightVector",
    "best_k_term",
    "delta_hat_lp",
    "delta_hat_wl1",
    "delta_hat_wlp",
    "error_constants",
    "oracle_l0",
    "oracle_weighted_lp",
    "proposition2_check",
    "smoothed_gradient",
    "smoothed_objective",
    "snr_db",
    "solve",
    "sufficient_condition_holds",
    "weighted_lp_norm",
    "__version__",
]
