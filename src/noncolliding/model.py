"""Particle system definitions.

A system of d ordered particles evolves under pairwise repulsion
gamma_ij / (x_i - x_j), a drift b(x) and a diffusion sigma(x).  The state
space is the open Weyl chamber (strictly increasing coordinates).  Drift and
diffusion are closed parametric families so that their Lipschitz constants
and the diffusion supremum are exact, which keeps the parameter-condition
checkers honest.  A trusted extension point for user-supplied coefficients
is provided but its declared constants are not verified.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ZeroDrift",
    "ConstantDrift",
    "OrnsteinUhlenbeckDrift",
    "BoundedSmoothDrift",
    "CustomDrift",
    "ConstantMatrixDiffusion",
    "DiagonalBoundedDiffusion",
    "CustomDiffusion",
    "ParticleSystem",
    "ConditionCheck",
    "ConditionReport",
    "uniform_gamma",
    "tridiagonal_gamma",
    "drift_eval",
    "diffusion_eval",
    "check_full_interaction_condition",
    "check_nn_condition",
]


def _as_vector(v, name):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector")
    return arr


def _as_count(value, name, least):
    """value as an int if it is an integer, not a bool, and >= least; else ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be >= {least} and an integer, got {value!r}")
    return int(value)


def _check_increasing(x, name):
    """x if its entries are finite and strictly increasing; else ValueError naming it."""
    if not (np.isfinite(x).all() and (np.diff(x) > 0).all()):
        raise ValueError(f"{name} must be finite and strictly increasing")
    return x


# ---------------------------------------------------------------------------
# Drift families


@dataclass(frozen=True, eq=False)
class ZeroDrift:
    """b_i(x) = 0."""

    def __call__(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def lipschitz_constant(self):
        return 0.0


@dataclass(frozen=True, eq=False)
class ConstantDrift:
    """b_i(x) = c_i with c_1 <= ... <= c_d."""

    c: np.ndarray

    def __post_init__(self):
        c = _as_vector(self.c, "c")
        if not (np.isfinite(c).all() and (np.diff(c) >= 0).all()):
            raise ValueError("constant drift vector must be finite and non-decreasing")
        object.__setattr__(self, "c", c)

    def __call__(self, x):
        return self.c.copy()

    def lipschitz_constant(self):
        return 0.0


@dataclass(frozen=True, eq=False)
class OrnsteinUhlenbeckDrift:
    """Mean-reverting drift b_i(x) = theta * (mu_i - x_i)."""

    theta: float
    mu: np.ndarray

    def __post_init__(self):
        if not 0 <= self.theta < np.inf:
            raise ValueError("theta must be finite and >= 0")
        mu = _as_vector(self.mu, "mu")
        if not (np.isfinite(mu).all() and (np.diff(mu) >= 0).all()):
            raise ValueError("mu must be finite and non-decreasing")
        object.__setattr__(self, "mu", mu)

    def __call__(self, x):
        return self.theta * (self.mu - np.asarray(x, dtype=float))

    def lipschitz_constant(self):
        return float(self.theta)


@dataclass(frozen=True, eq=False)
class BoundedSmoothDrift:
    """Smooth bounded drift b_i(x) = beta * tanh(x_i)."""

    beta: float

    def __post_init__(self):
        if not np.isfinite(self.beta):
            raise ValueError("beta must be finite")

    def __call__(self, x):
        return self.beta * np.tanh(np.asarray(x, dtype=float))

    def lipschitz_constant(self):
        return abs(float(self.beta))


@dataclass(frozen=True, eq=False)
class CustomDrift:
    """User-supplied drift with user-declared constants (trusted, not verified).

    The evaluator maps a length-d state to a length-d drift vector.  Custom
    drifts are accepted for simulation but excluded from parameter-condition
    checking, which relies on the coordinate-wise families above.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    declared_lipschitz: float

    def __call__(self, x):
        return np.asarray(self.evaluator(np.asarray(x, dtype=float)), dtype=float)

    def lipschitz_constant(self):
        return float(self.declared_lipschitz)


# ---------------------------------------------------------------------------
# Diffusion families


@dataclass(frozen=True, eq=False)
class ConstantMatrixDiffusion:
    """sigma(x) = constant d x d matrix.

    `diagonal` holds the diagonal of a matrix with no other non-zero entry
    (None otherwise): sigma dW is then diagonal * dW, which has the bits of
    the matrix product at a fraction of its cost.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("diffusion matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("diffusion matrix must be finite")
        object.__setattr__(self, "matrix", m)
        diagonal = np.diag(m).copy()
        object.__setattr__(self, "diagonal", diagonal if np.array_equal(m, np.diag(diagonal)) else None)

    def __call__(self, x):
        return self.matrix.copy()

    def sigma_sup_sq(self):
        # sup_i sup_x sum_k sigma_ik(x)^2 = max row sum of squares.
        return float(np.max(np.sum(self.matrix**2, axis=1)))

    def lipschitz_constant(self):
        return 0.0


@dataclass(frozen=True, eq=False)
class DiagonalBoundedDiffusion:
    """Diagonal diffusion sigma_ii(x) = s0 + s1 * tanh(x_i), off-diagonal zero."""

    s0: float
    s1: float = 0.0

    def __post_init__(self):
        if not 0 < self.s0 < np.inf:
            raise ValueError("s0 must be finite and > 0")
        if not 0 <= self.s1 < np.inf:
            raise ValueError("s1 must be finite and >= 0")

    def __call__(self, x):
        return np.diag(self.s0 + self.s1 * np.tanh(np.asarray(x, dtype=float)))

    def diagonal(self, x):
        """Diagonal entries only; x may be batched with shape (..., d)."""
        return self.s0 + self.s1 * np.tanh(np.asarray(x, dtype=float))

    def sigma_sup_sq(self):
        return (self.s0 + self.s1) ** 2

    def lipschitz_constant(self):
        return float(self.s1)


@dataclass(frozen=True, eq=False)
class CustomDiffusion:
    """User-supplied diffusion with declared constants (trusted, not verified)."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    declared_lipschitz: float
    declared_sup_sq: float

    def __call__(self, x):
        return np.asarray(self.evaluator(np.asarray(x, dtype=float)), dtype=float)

    def sigma_sup_sq(self):
        return float(self.declared_sup_sq)

    def lipschitz_constant(self):
        return float(self.declared_lipschitz)


COORDINATEWISE_DRIFTS = (ZeroDrift, ConstantDrift, OrnsteinUhlenbeckDrift, BoundedSmoothDrift)


def drift_eval(spec, x):
    """Evaluate the drift vector (b_1(x), ..., b_d(x))."""
    return spec(x)


def diffusion_eval(spec, x):
    """Evaluate the diffusion matrix (sigma_ij(x))."""
    return spec(x)


# ---------------------------------------------------------------------------
# Interaction matrices


def uniform_gamma(d, value):
    """Full interaction matrix with every off-diagonal entry equal to value."""
    d = _as_count(d, "d", 2)
    g = np.full((d, d), float(value))
    np.fill_diagonal(g, 0.0)
    return g


def tridiagonal_gamma(d, value):
    """Nearest-neighbour interaction matrix; value is one number or the d - 1 pair values."""
    d = _as_count(d, "d", 2)
    g = np.zeros((d, d))
    idx = np.arange(d - 1)
    g[idx, idx + 1] = g[idx + 1, idx] = np.asarray(value, dtype=float)
    return g


def validate_interaction(matrix, d, name):
    """matrix as a float array, checked to be a valid interaction matrix.

    Interaction matrices (gamma of a system, c of a step) are d x d for d >= 2,
    finite, non-negative, symmetric, zero on the diagonal and strictly positive
    on the first off-diagonal; name is used in the error messages.
    """
    if d < 2:
        raise ValueError("need at least two particles")
    d = _as_count(d, "d", 2)
    g = np.asarray(matrix, dtype=float)
    if g.shape != (d, d):
        raise ValueError(f"{name} must be a {d}x{d} matrix")
    if not np.all((g >= 0) & (g < np.inf)):
        raise ValueError(f"{name} entries must be non-negative and finite")
    if not np.array_equal(g, g.T):
        raise ValueError(f"{name} must be symmetric")
    if np.any(np.diag(g) != 0):
        raise ValueError(f"{name} must have zero diagonal")
    if np.any(np.diag(g, 1) <= 0):
        raise ValueError(f"{name} must have strictly positive first off-diagonal")
    return g


def is_uniform(matrix):
    """True when all off-diagonal entries of the interaction matrix are equal."""
    off = matrix[~np.eye(len(matrix), dtype=bool)]
    return bool(np.all(off == off[0]))


def is_tridiagonal(matrix):
    """True when the (symmetric) interaction matrix is zero beyond the first off-diagonals."""
    return not np.any(np.triu(matrix, 2))


@dataclass(frozen=True, eq=False)
class ParticleSystem:
    """A d-particle repulsive system with ordered initial configuration.

    gamma must be symmetric with zero diagonal, non-negative entries and
    strictly positive first off-diagonal; x0 must be strictly increasing.
    The drift must map x0 to a length-d vector and the diffusion to a d x d
    matrix; each is evaluated once at x0 to check.  Instances are immutable
    and safe to share across workers.
    """

    d: int
    gamma: np.ndarray
    drift: object
    diffusion: object
    x0: np.ndarray

    def __post_init__(self):
        g = validate_interaction(self.gamma, self.d, "gamma")
        x0 = _as_vector(self.x0, "x0")
        if x0.shape != (self.d,):
            raise ValueError(f"x0 must have length {self.d}")
        _check_increasing(x0, "x0")
        if np.shape(drift_eval(self.drift, x0)) != (self.d,):
            raise ValueError(f"drift must give a vector of length {self.d}")
        if np.shape(diffusion_eval(self.diffusion, x0)) != (self.d, self.d):
            raise ValueError(f"diffusion must give a {self.d}x{self.d} matrix")
        object.__setattr__(self, "d", len(g))
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "x0", x0)


# ---------------------------------------------------------------------------
# Parameter-condition checks


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    lhs: float
    rhs: float
    satisfied: bool


@dataclass(frozen=True)
class ConditionReport:
    satisfied: bool
    checks: tuple


def _check_condition_inputs(system, p):
    if not p >= 1:
        raise ValueError("p must be >= 1")
    if not isinstance(system.drift, COORDINATEWISE_DRIFTS):
        raise ValueError(
            "condition checking requires a coordinate-wise drift family; "
            "custom drifts are accepted for simulation only"
        )


def check_full_interaction_condition(system, p):
    """Check the moment-bound condition for uniform full interaction.

    Requires ratio = 3*gamma / (d * sigma_sup_sq) >= 2 and p <= ratio - 1.
    Returns a report with both sides of each inequality.
    """
    _check_condition_inputs(system, p)
    if not is_uniform(system.gamma):
        raise ValueError("full-interaction condition is only stated for uniform gamma")
    gamma = float(system.gamma[0, 1])
    sig2 = system.diffusion.sigma_sup_sq()
    ratio = 3.0 * gamma / (system.d * sig2)
    checks = (
        ConditionCheck("3*gamma/(d*sigma_sup_sq) >= 2", ratio, 2.0, ratio >= 2.0),
        ConditionCheck("p <= 3*gamma/(d*sigma_sup_sq) - 1", p, ratio - 1.0, p <= ratio - 1.0),
    )
    return ConditionReport(all(c.satisfied for c in checks), checks)


def check_nn_condition(system, p, chi):
    """Check the moment-bound condition for nearest-neighbour interaction.

    Requires gamma / (2 * sigma_sup_sq) >= (p + 1) / (2 - chi), where chi is
    the sharp gap-inequality constant computed by analysis.chi_bar.
    """
    _check_condition_inputs(system, p)
    if not chi < 2:
        raise ValueError("chi must be < 2")
    if not is_tridiagonal(system.gamma):
        raise ValueError("nearest-neighbour condition requires tridiagonal gamma")
    gamma = float(system.gamma[0, 1])
    if np.any(np.diag(system.gamma, 1) != gamma):
        raise ValueError("nearest-neighbour condition is only stated for a single gamma value")
    sig2 = system.diffusion.sigma_sup_sq()
    lhs = gamma / (2.0 * sig2)
    rhs = (p + 1.0) / (2.0 - chi)
    checks = (ConditionCheck("gamma/(2*sigma_sup_sq) >= (p+1)/(2-chi)", lhs, rhs, lhs >= rhs),)
    return ConditionReport(checks[0].satisfied, checks)
