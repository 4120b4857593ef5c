"""Time stepping for the particle system.

The semi-implicit scheme treats only the singular repulsion term implicitly:
one step from state X at time t_k solves

    xi_i = a_i + sum_{j != i} (gamma_ij * h) / (xi_i - xi_j),
    a_i  = X_i + b_i(X) * h + sum_j sigma_ij(X) * dW_j,

whose unique ordered solution becomes X(t_{k+1}).  The explicit scheme is
provided for contrast; it can and does leave the ordered chamber, which is
reported rather than raised.  Brownian increments come from a counter-based
generator so that dyadic coarsening and parallel replication stay exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import implicit
from .implicit import ImplicitProblem, SolverOptions
from .model import COORDINATEWISE_DRIFTS, ConstantMatrixDiffusion, DiagonalBoundedDiffusion
from .model import diffusion_eval, drift_eval

__all__ = [
    "TimeGrid",
    "BrownianPath",
    "PathResult",
    "generate_brownian",
    "coarsen",
    "step_semi_implicit",
    "step_explicit",
    "simulate",
    "simulate_batch",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with n steps; times are k*T/n, never accumulated."""

    T: float
    n: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be > 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def h(self):
        return self.T / self.n

    def times(self):
        return np.arange(self.n + 1) * (self.T / self.n)


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """Seeded fine-grid increments of a d-dimensional Brownian motion.

    increments[k, j] is W_j(t_{k+1}) - W_j(t_k) on the n_max-step grid;
    identical (seed, d, T, n_max) always reproduce identical arrays.
    """

    seed: int
    d: int
    T: float
    n_max: int
    increments: np.ndarray

    @property
    def n(self):
        return self.increments.shape[0]

    def terminal(self):
        return self.increments.sum(axis=0)


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def generate_brownian(seed, d, T, n_max):
    """Draw the n_max x d increment array from a counter-based generator.

    The Philox bit generator is keyed by the seed alone; increments are laid
    out row-major so a given (seed, d, T, n_max) is bit-reproducible on any
    platform and safe to regenerate independently in parallel workers.
    """
    if not _is_power_of_two(n_max):
        raise ValueError("n_max must be a power of 2")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    increments = rng.standard_normal((n_max, d)) * np.sqrt(T / n_max)
    return BrownianPath(seed=int(seed), d=int(d), T=float(T), n_max=int(n_max), increments=increments)


def coarsen(path, factor):
    """Merge blocks of `factor` fine increments into single coarse increments."""
    if not _is_power_of_two(factor):
        raise ValueError("factor must be a power of 2")
    n = path.n
    if n % factor != 0:
        raise ValueError("factor must divide the current number of increments")
    if factor == 1:
        return path
    # halve repeatedly so coarsen(coarsen(p, 2), 2) == coarsen(p, 4) bit-for-bit
    coarse = path.increments
    f = factor
    while f > 1:
        coarse = coarse[0::2] + coarse[1::2]
        f //= 2
    return BrownianPath(seed=path.seed, d=path.d, T=path.T, n_max=path.n_max, increments=coarse)


@dataclass(frozen=True, eq=False)
class PathResult:
    """States on the grid plus chamber diagnostics.

    For the semi-implicit scheme min_gap > 0 always and exited_chamber is
    False.  For the explicit scheme, stepping halts at the first ordering
    violation; states after the exit row are frozen at the last valid state.
    """

    states: np.ndarray
    min_gap: float
    solver_iters: np.ndarray
    exited_chamber: bool
    exit_step: int | None = None


def step_semi_implicit(system, state, h, dW, opts=None):
    """One semi-implicit step; returns (new ordered state, solver result)."""
    state = np.asarray(state, dtype=float)
    if h <= 0:
        raise ValueError("h must be > 0")
    a = state + drift_eval(system.drift, state) * h + diffusion_eval(system.diffusion, state) @ dW
    problem = ImplicitProblem(a, system.gamma * h)
    result = implicit.solve(problem, opts or SolverOptions())
    return result.xi, result


def step_explicit(system, state, h, dW):
    """One explicit step; returns (new state, still-ordered flag)."""
    state = np.asarray(state, dtype=float)
    drift = implicit._interaction(system.gamma, state) + drift_eval(system.drift, state)
    new = state + drift * h + diffusion_eval(system.diffusion, state) @ dW
    return new, bool(np.all(np.diff(new) > 0))


def simulate(system, grid, path, scheme="semi_implicit", opts=None):
    """Run the chosen stepper over the grid with the given increments."""
    if path.n != grid.n:
        raise ValueError(f"path has {path.n} increments but grid has {grid.n} steps")
    if path.d != system.d:
        raise ValueError("path dimension does not match system dimension")
    if scheme not in ("semi_implicit", "explicit"):
        raise ValueError(f"unknown scheme {scheme!r}")
    h = grid.h
    states = np.empty((grid.n + 1, system.d))
    states[0] = system.x0
    iters = np.zeros(grid.n, dtype=int)
    exited = False
    exit_step = None
    x = system.x0
    for k in range(grid.n):
        dW = path.increments[k]
        if scheme == "semi_implicit":
            x, result = step_semi_implicit(system, x, h, dW, opts)
            iters[k] = result.iterations
        else:
            x_new, ordered = step_explicit(system, x, h, dW)
            if not ordered:
                exited = True
                exit_step = k + 1
                states[k + 1 :] = x
                iters[k:] = 0
                break
            x = x_new
        states[k + 1] = x
    min_gap = float(np.min(np.diff(states, axis=1)))
    return PathResult(
        states=states,
        min_gap=min_gap,
        solver_iters=iters,
        exited_chamber=exited,
        exit_step=exit_step,
    )


# ---------------------------------------------------------------------------
# Batched Monte Carlo simulation


def replication_seed(base_seed, rep):
    """Deterministic per-replication seed derived from (base_seed, rep)."""
    return int(np.random.SeedSequence((int(base_seed), int(rep))).generate_state(1)[0])


def generate_brownian_batch(base_seed, reps, d, T, n_max):
    """Increments for replications [0, reps); shape (reps, n_max, d)."""
    if not _is_power_of_two(n_max):
        raise ValueError("n_max must be a power of 2")
    out = np.empty((len(range(reps)), n_max, d))
    scale = np.sqrt(T / n_max)
    for m in range(reps):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((int(base_seed), m))))
        out[m] = rng.standard_normal((n_max, d)) * scale
    return out


def simulate_batch(system, grid, increments, record_stride=None, opts=None):
    """Semi-implicit simulation of many paths at once.

    increments has shape (m, n, d) with n == grid.n.  Returns (recorded, min_gap)
    where recorded has shape (m, n // stride + 1, d) holding the states at
    every stride-th grid time (stride defaults to 1) and min_gap is the
    minimum over all paths, steps and adjacent pairs.  All m implicit systems
    of a step are solved together by the batched Newton path.
    """
    opts = opts or SolverOptions()
    m, n, d = increments.shape
    if n != grid.n:
        raise ValueError("increment count does not match grid")
    if d != system.d:
        raise ValueError("increment dimension does not match system")
    stride = record_stride or 1
    if n % stride != 0:
        raise ValueError("record_stride must divide n")
    h = grid.h
    c = system.gamma * h
    x = np.broadcast_to(system.x0, (m, d)).copy()
    recorded = np.empty((m, n // stride + 1, d))
    recorded[:, 0] = x
    min_gap = float(np.min(np.diff(x, axis=1)))
    for k in range(n):
        b, noise = _drift_and_noise(system, x, increments[:, k])
        a = x + b * h + noise
        x = implicit.solve_batch(a, c, opts)
        min_gap = min(min_gap, float(np.min(np.diff(x, axis=1))))
        if (k + 1) % stride == 0:
            recorded[:, (k + 1) // stride] = x
    return recorded, min_gap


def _drift_and_noise(system, x, dW, explicit=False):
    """Drift b(x) and noise sigma(x) dW for a batch of states x of shape (m, d).

    With explicit=True the drift includes the interaction term, as the
    explicit scheme steps it.  The closed drift and diffusion families act on
    the whole batch; custom evaluators, written for one state, go row by row.
    """
    if isinstance(system.drift, COORDINATEWISE_DRIFTS):
        b = drift_eval(system.drift, x)
    else:
        b = np.asarray([drift_eval(system.drift, row) for row in x])
    if explicit:
        b = implicit._interaction(system.gamma, x) + b
    sigma = system.diffusion
    if isinstance(sigma, DiagonalBoundedDiffusion):
        noise = sigma.diagonal(x) * dW
    elif isinstance(sigma, ConstantMatrixDiffusion):
        noise = dW @ sigma.matrix.T
    else:
        noise = np.asarray([diffusion_eval(sigma, row) @ w for row, w in zip(x, dW)])
    return b, noise
