"""Structure-preserving simulation of non-colliding stochastic particle systems.

The package simulates systems of ordered particles with singular pairwise
repulsion via a semi-implicit Euler-Maruyama scheme whose per-step implicit
system is solved exactly inside the ordered chamber, so trajectories never
collide by construction.  Besides the scheme it ships the per-step solvers
(Newton, continuation, monotone fixed-point iterations), a strong-convergence
measurement harness, moment estimators, and oracles for the gap inequalities
and parameter conditions that govern well-posedness.
"""

from .errors import ConfigError, NonConvergenceError
from .model import (
    BoundedSmoothDrift,
    ConditionCheck,
    ConditionReport,
    ConstantDrift,
    ConstantMatrixDiffusion,
    CustomDiffusion,
    CustomDrift,
    DiagonalBoundedDiffusion,
    OrnsteinUhlenbeckDrift,
    ParticleSystem,
    ZeroDrift,
    check_full_interaction_condition,
    check_nn_condition,
    diffusion_eval,
    drift_eval,
    tridiagonal_gamma,
    uniform_gamma,
)
from .implicit import (
    GapVector,
    ImplicitProblem,
    SolveResult,
    SolverOptions,
    jacobian,
    residual,
    solve,
    solve_alternating_d3,
    solve_fixed_point_nn,
    solve_homotopy,
    solve_newton,
)
from .scheme import (
    BrownianPath,
    PathResult,
    TimeGrid,
    coarsen,
    generate_brownian,
    simulate,
    simulate_batch,
    step_explicit,
    step_semi_implicit,
)
from .analysis import (
    ConvergenceStudy,
    MomentReport,
    RateEstimate,
    chi_bar,
    collision_rate_explicit,
    fit_rate,
    moment_profile,
    run_study,
    verify_gap_inequality_full,
    verify_gap_inequality_nn,
)
from .config import ExperimentConfig, parse_config, serialize_config, build_system

__version__ = "0.1.0"
