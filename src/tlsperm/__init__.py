"""Total-least-squares recovery of a lost row correspondence.

Observed are two noisy views of one hidden design: y1 = x + e1 and
y2 = P x r + e2, where r mixes columns and P permutes rows. The package
estimates the permutation by minimizing the rank-p residual of the stacked
pair, exactly for small n and by alternating fit/assignment steps otherwise,
and ships the evaluation metrics, the high-probability loss bound, and a
deterministic Monte Carlo harness around them.
"""
from .errors import ContractViolation, DegenerateFit, NumericalFailure, RankDeficient
from .estimators import (
    COST_KINDS,
    EstimateResult,
    alta,
    aloa,
    brute_force_tls,
    build_cost,
)
from .evaluation import (
    BoundValue,
    eig_tail_rhs,
    hamming_distance,
    procrustes_loss,
    procrustes_residual_gap,
    quadratic_loss,
    recovery_bound,
    trace_max_check,
)
from .lap import solve_lap
from .model import (
    Observations,
    ProblemInstance,
    as_covariance,
    as_permutation,
    generate_design,
    generate_observations,
    identity_permutation,
    partial_shuffle,
    random_orthogonal,
    random_permutation,
    rotation_2d,
    snr,
    stream,
)
from .tls import TlsFit, tls_fit, tls_objective

__version__ = "0.1.0"
