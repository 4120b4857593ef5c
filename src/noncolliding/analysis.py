"""Strong-error measurement, moment estimators, and inequality oracles.

The exact solution of the particle system is unavailable, so strong errors
are measured against the semi-implicit scheme at a much finer reference
level driven by the same Brownian path (common random numbers); the
reference-to-coarsest ratio of at least 4 keeps proxy bias below fit noise.
Rates come from a least-squares fit of log2(error) against log2(n).

The gap inequalities are checked pointwise on explicitly sampled chamber
configurations; the sharp nearest-neighbour constant chi_bar(d, p), a maximum
over the positive (p+2)-norm unit sphere, comes from a Perron-Frobenius
fixed-point iteration stopped at a move of 1e-15, within 64(p+2) steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scheme
from .errors import NonConvergenceError
# simulate_batch stays bound here: perfbench/tracing.py wraps analysis.simulate_batch
from .scheme import TimeGrid, _is_power_of_two, simulate_batch  # noqa: F401

__all__ = [
    "ConvergenceStudy",
    "RateEstimate",
    "MomentReport",
    "run_study",
    "fit_rate",
    "level_rule",
    "moment_profile",
    "collision_rate_explicit",
    "verify_gap_inequality_full",
    "verify_gap_inequality_nn",
    "sample_chamber_points",
    "sweep_gap_inequality_full",
    "sweep_gap_inequality_nn",
    "chi_bar",
]

ERROR_MODES = ("grid_sup_Lp", "terminal_L2", "grid_sup_L2")

# Rows per chunk and fine steps per time block.  The replications of a chunk
# are stepped together, one block of increments at a time, so a chunk's
# increments and states, the largest arrays of a study, take O(CHUNK * block
# * d) memory whatever the path length; only one block is drawn at a time.
CHUNK = 1000
BLOCK = 64


def _check_order(p):
    # p of a moment, a gap inequality or chi_bar; NaN fails the test
    if not 0 <= p < np.inf:
        raise ValueError("p must be finite and >= 0")
    return p


def level_rule(levels, ref_level):
    """The first dyadic-level rule that levels or ref_level (either may be None)
    breaks, as (field, message), or None when they keep every rule."""
    if levels is not None and not all(_is_power_of_two(n) for n in levels):
        return "levels", "levels must be powers of 2"
    if ref_level is not None and not _is_power_of_two(ref_level):
        return "ref_level", "ref_level must be a power of 2"
    if levels is None or ref_level is None:
        return None
    if any(ref_level % n for n in levels):
        return "levels", "all levels must divide ref_level"
    if ref_level < 4 * max(levels):
        return "ref_level", "ref_level must be at least 4x the largest level"
    return None


@dataclass(frozen=True, eq=False)
class ConvergenceStudy:
    """Common-random-number strong-error experiment specification."""

    system: object
    T: float
    levels: tuple
    ref_level: int
    replications: int
    error_mode: str = "grid_sup_Lp"
    p: float = 2.0
    base_seed: int = 0

    def __post_init__(self):
        levels = tuple(int(n) for n in self.levels)
        if len(levels) == 0:
            raise ValueError("levels must be non-empty")
        if broken := level_rule(levels, self.ref_level):
            raise ValueError(broken[1])
        if self.error_mode not in ERROR_MODES:
            raise ValueError(f"error_mode must be one of {ERROR_MODES}")
        if self.error_mode == "grid_sup_Lp" and not 0 < self.p < np.inf:
            raise ValueError("p must be finite and > 0")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 0 < self.T < np.inf:
            raise ValueError("T must be finite and > 0")
        object.__setattr__(self, "levels", levels)


@dataclass(frozen=True, eq=False)
class RateEstimate:
    """Per-level strong errors plus the fitted log-log slope."""

    levels: tuple
    errors: tuple
    std_errs: tuple
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True, eq=False)
class MomentReport:
    t: float
    p: float
    est_abs_moment: float
    abs_moment_std_err: float
    est_inv_gap_moments: np.ndarray
    inv_gap_std_errs: np.ndarray
    bound: float


def _accumulate_error(mode, err, coarse_states, ref_states):
    # Euclidean norm of the state mismatch at each recorded grid time of a
    # block: the terminal mode keeps the last one, the others the running max
    dist = np.linalg.norm(coarse_states - ref_states, axis=2)
    if mode == "terminal_L2":
        err[:] = dist[:, -1]
    else:
        np.maximum(err, dist.max(axis=1), out=err)


def _moment_power(mode, p):
    return p if mode == "grid_sup_Lp" else 2.0


def _lp_estimate(samples, p):
    """(mean of e^p)^(1/p) with a delta-method standard error."""
    powered = samples**p
    m = powered.mean()
    if m == 0.0:
        return 0.0, 0.0
    se_m = powered.std(ddof=1) / np.sqrt(len(powered)) if len(powered) > 1 else 0.0
    est = m ** (1.0 / p)
    return float(est), float((1.0 / p) * m ** (1.0 / p - 1.0) * se_m)


def _per_level_errors(study, levels):
    """Per-replication error samples at each level, sharing one reference run."""
    nmax = max(levels)
    finest_first = sorted(set(levels), reverse=True)

    def run_chunk(start, stop, blocks):
        errors = {n: np.zeros(stop - start) for n in levels}
        ref = _walk(study.system, TimeGrid(study.T, study.ref_level), study.ref_level // nmax)
        walks = {n: _walk(study.system, TimeGrid(study.T, n), 1) for n in levels}
        for _, inc in blocks:
            ref_rec, _ = ref(inc)
            finer = study.ref_level
            for n in finest_first:  # every level is below ref_level (ConvergenceStudy checks)
                # each level halves the next finer one's increments: halving twice is coarsening by 4, bit for bit
                inc, finer = scheme._coarsen(inc, finer // n), n
                rec, _ = walks[n](inc)
                _accumulate_error(study.error_mode, errors[n], rec, ref_rec[:, :: nmax // n])
        return errors

    shares = _replications(
        study.base_seed, study.replications, study.system.d, study.T, study.ref_level, run_chunk,
        factor=study.ref_level // min(levels),
    )
    return {n: np.concatenate([errors[n] for errors in shares]) for n in levels}


def run_study(study):
    """Errors at every level (one shared reference run) plus the rate fit."""
    samples = _per_level_errors(study, study.levels)
    power = _moment_power(study.error_mode, study.p)
    errors, std_errs = zip(*(_lp_estimate(samples[n], power) for n in study.levels))
    fit = fit_rate(list(zip(study.levels, errors)))
    return RateEstimate(
        levels=tuple(study.levels),
        errors=tuple(errors),
        std_errs=tuple(std_errs),
        slope=fit.slope,
        intercept=fit.intercept,
        r_squared=fit.r_squared,
    )


def fit_rate(estimates):
    """Least-squares fit of log2(error) vs log2(n); slope is the positive rate."""
    if len(estimates) < 3:
        raise ValueError("need at least 3 levels to fit a rate")
    ns = np.array([float(n) for n, _ in estimates])
    errs = np.array([float(e) for _, e in estimates])
    if np.any(errs <= 0):
        raise ValueError("errors must be positive")
    x = np.log2(ns)
    y = np.log2(errs)
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateEstimate(
        levels=tuple(int(n) for n in ns),
        errors=tuple(errs),
        std_errs=tuple(0.0 for _ in errs),
        slope=float(-slope),
        intercept=float(intercept),
        r_squared=float(r2),
    )


# ---------------------------------------------------------------------------
# Moments


def moment_profile(system, T, p, M, n, base_seed=0, times=None):
    """MomentReport at each requested time from M semi-implicit paths.

    times defaults to the recorded grid times; a time in [0, T] is reported
    at the nearest grid time, and a time outside it, or no time, raises
    ValueError.  Each report carries the inverse-gap bound
    sum(gap_i(0)^-p) * exp(p * t * Lip(b)) at its own t.
    """
    _check_order(p)
    if M < 1:
        raise ValueError("M must be >= 1")
    grid = TimeGrid(T, n)
    grid_times = grid.times()
    times = grid_times if times is None else np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("times must not be empty")
    if not np.all((times >= 0.0) & (times <= T)):
        raise ValueError(f"times must lie in [0, T] = [0, {T}]")
    idx = np.array([int(np.argmin(np.abs(grid_times - t))) for t in times])

    def run_chunk(start, stop, blocks):
        states = np.empty((stop - start, len(idx), system.d))
        walk = _walk(system, grid, 1)
        for k, inc in blocks:
            rec, _ = walk(inc)
            hit = (idx >= k) & (idx <= k + inc.shape[1])
            states[:, hit] = rec[:, idx[hit] - k]
        return states

    states = np.concatenate(_replications(base_seed, M, system.d, T, n, run_chunk))
    abs_pow = np.linalg.norm(states, axis=2) ** p
    inv_pow = np.diff(states, axis=2) ** (-float(p))
    lip = system.drift.lipschitz_constant()
    gap0 = np.diff(system.x0)
    reports = []
    for j, k in enumerate(idx):
        t = grid_times[k]
        abs_m = abs_pow[:, j].mean()
        abs_se = abs_pow[:, j].std(ddof=1) / np.sqrt(M) if M > 1 else 0.0
        inv_m = inv_pow[:, j].mean(axis=0)
        inv_se = inv_pow[:, j].std(axis=0, ddof=1) / np.sqrt(M) if M > 1 else np.zeros(system.d - 1)
        bound = float(np.sum(gap0 ** (-float(p))) * np.exp(p * t * lip))
        reports.append(
            MomentReport(
                t=float(t),
                p=float(p),
                est_abs_moment=float(abs_m),
                abs_moment_std_err=float(abs_se),
                est_inv_gap_moments=inv_m,
                inv_gap_std_errs=inv_se,
                bound=bound,
            )
        )
    return reports


def _batch_increments(base_seed, start, stop, d, T, n, rngs=None, steps=None):
    """Increments of replications [start, stop), keyed by (base_seed, rep), on the n-step grid.

    Draws all n steps from new generators, or, given `rngs`, the live
    generators of those replications, their next `steps`.
    """
    if rngs is None:
        rngs = scheme._generators([(int(base_seed), rep) for rep in range(start, stop)])
    return scheme._increments(rngs, d, T, n, steps)


def _replications(base_seed, M, d, T, n, run_chunk, factor=1):
    """The one loop over replications [0, M): run_chunk(start, stop, blocks) per share of CHUNK rows.

    Each chunk of up to CHUNK rows is split into contiguous shares that
    `scheme._in_workers` steps in parallel processes; returns the run_chunk
    results of every share in row order.  `blocks` yields (k, increments) for
    steps k + 1, ..., k + b of the n-step grid, in order, with
    b = min(n, max(BLOCK, factor)) except for a shorter last block.  A block
    is drawn only when run_chunk asks for it, from one Philox generator per
    replication that lives for the share, so the blocks of a replication
    concatenate to its one-shot `_batch_increments` bit for bit.  With a
    power-of-two factor, each block of a power-of-two n holds whole dyadic
    trees of `factor` fine steps.  Rows are keyed by (base_seed, rep) and a
    path gets the same bits in any batch, so results depend on neither
    CHUNK, the block length nor the number of processes.
    """
    block = min(n, max(BLOCK, factor))

    def run_share(start, stop):
        rngs = scheme._generators([(int(base_seed), rep) for rep in range(start, stop)])
        blocks = (
            (k, _batch_increments(base_seed, start, stop, d, T, n, rngs, min(block, n - k)))
            for k in range(0, n, block)
        )
        return run_chunk(start, stop, blocks)

    chunks = range(0, M, CHUNK)
    return [result for start in chunks for result in scheme._in_workers(run_share, start, min(start + CHUNK, M), d)]


def _walk(system, grid, stride=None):
    """walk(increments) steps semi-implicit paths through the next block of grid.

    Each call continues every path from where the last call left it (system.x0
    at first) and returns (recorded, min_gap) as `simulate_batch` does for the
    block: the states at every stride-th step, the block's start first, with
    stride defaulting to the block length.  It steps in this process through
    `scheme._paths`, since `_replications` has already split the rows.
    """
    x = system.x0

    def walk(increments):
        nonlocal x
        recorded, min_gap, _ = scheme._paths(
            system, grid, increments, "semi_implicit", stride or increments.shape[1], x
        )
        x = recorded[:, -1]
        return recorded, min_gap

    return walk


# ---------------------------------------------------------------------------
# Explicit-scheme collision rate


def collision_rate_explicit(system, n, M, seed, T=1.0):
    """Fraction of explicit-scheme paths that leave the ordered chamber."""
    if M < 1:
        raise ValueError("M must be >= 1")
    grid = TimeGrid(T, n)

    def run_chunk(start, stop, blocks):
        x, exit_step = system.x0, None
        for k, inc in blocks:
            rec, _, exit_step = scheme._paths(system, grid, inc, "explicit", inc.shape[1], x, k, exit_step)
            x = rec[:, -1]
        return np.count_nonzero(exit_step)

    return int(sum(_replications(seed, M, system.d, T, n, run_chunk))) / M


# ---------------------------------------------------------------------------
# Gap inequalities


def _check_chamber(x, p):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ValueError("x must be a vector of length >= 2")
    if not (np.diff(x) > 0).all():
        raise ValueError("x must be strictly increasing")
    _check_order(p)
    return x


def verify_gap_inequality_full(x, p):
    """Both sides of the full-interaction gap inequality; contract lhs < rhs."""
    lhs, rhs = _full_sides_batch(_check_chamber(x, p)[None], p)
    return float(lhs[0]), float(rhs[0])


def verify_gap_inequality_nn(x, p, chi):
    """Both sides of the nearest-neighbour gap inequality; contract lhs <= rhs."""
    x = _check_chamber(x, p)
    if x.shape[0] < 3:
        raise ValueError("nearest-neighbour inequality needs d >= 3")
    lhs, rhs = _nn_sides_batch(x[None], p, chi)
    return float(lhs[0]), float(rhs[0])


def sample_chamber_points(rng, d, count):
    """Random ordered configurations with log-uniform gaps in [1e-3, 1e3]."""
    gaps = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(count, d - 1)))
    anchor = rng.uniform(-1.0, 1.0, size=(count, 1))
    return np.concatenate([anchor, anchor + np.cumsum(gaps, axis=1)], axis=1)


def _full_sides_batch(pts, p):
    m, d = pts.shape
    gaps = np.diff(pts, axis=1)
    lhs = np.zeros(m)
    for i in range(d - 1):
        for k in range(d):
            if k in (i, i + 1):
                continue
            lhs += 1.0 / (gaps[:, i] ** p * (pts[:, i + 1] - pts[:, k]) * (pts[:, i] - pts[:, k]))
    rhs = (2.0 - 3.0 / d) * np.sum(gaps ** (-(p + 2.0)), axis=1)
    return lhs, rhs


def _nn_sides_batch(pts, p, chi):
    if not np.isfinite(chi):
        raise ValueError("chi must be finite")
    gaps = np.diff(pts, axis=1)
    g1, g2 = gaps[:, :-1], gaps[:, 1:]
    lhs = np.sum(1.0 / (g2 * g1 ** (p + 1.0)) + 1.0 / (g2 ** (p + 1.0) * g1), axis=1)
    rhs = chi * np.sum(gaps ** (-(p + 2.0)), axis=1)
    return lhs, rhs


def _scaled_sides(sides, pts, p, *args):
    # both sides are homogeneous of degree -(p + 2); at a smallest gap of 1 an overflowing term is an exact 0
    with np.errstate(over="ignore", divide="ignore"):
        lhs, rhs = sides((pts - pts[:, :1]) / np.diff(pts, axis=1).min(axis=1, keepdims=True), p, *args)
    if not np.isfinite([lhs, rhs]).all():  # a scaled gap that rounds below 1 at a huge p
        raise ValueError(f"p = {p:g} is too large for a sweep: the scaled sides are not finite")
    return lhs, rhs


def sweep_gap_inequality_full(d, p, count, seed=0):
    """Number of violations of the strict full inequality over random points."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(d), int(round(_check_order(p))))))
    lhs, rhs = _scaled_sides(_full_sides_batch, sample_chamber_points(rng, d, count), p)
    return int(np.count_nonzero(lhs >= rhs))


def sweep_gap_inequality_nn(d, p, chi, count, seed=0):
    """Number of violations of the nearest-neighbour inequality with constant chi."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(d), int(round(_check_order(p))), 1)))
    lhs, rhs = _scaled_sides(_nn_sides_batch, sample_chamber_points(rng, d, count), p, chi)
    return int(np.count_nonzero(lhs > rhs * (1.0 + 1e-12)))


# ---------------------------------------------------------------------------
# The sharp nearest-neighbour constant chi_bar(d, p)


def _chi_objective(xi, p):
    return float(np.sum(xi[1:] * xi[:-1] ** p + xi[1:] ** p * xi[:-1]))


def _on_sphere(v, q):
    s = np.sum(v**q)
    if not s >= np.finfo(float).tiny:  # the q-th powers underflowed: scale first
        v = v / v.max()
        s = np.sum(v**q)
    return v / s ** (1.0 / q)


def chi_bar(d, p):
    """Maximum of f(xi) = sum(xi_{i+1} xi_i^p + xi_{i+1}^p xi_i) on the positive
    (p+2)-norm unit sphere in dimension d - 1: the sharp constant of the
    nearest-neighbour gap inequality; callers that need it below 2 must check.

    The Perron-Frobenius iteration for nonnegative forms, xi <- grad
    f(xi)^(1/(p+1)) put back on the sphere, runs from the symmetric point (the
    fixed point at d = 3) until no entry moves by more than 1e-15.  For p >= 1
    it contracts Hilbert's metric by p/(p+1) from a first step of log(2)/(p+1),
    so it stops within 35(p+1) steps; below p = 1 nothing proves it does.  At
    64(p+2) steps it raises NonConvergenceError.  p must be below 1e4: the
    maximizer's entries near 1 - log(2) / p round, so the error grows like p;
    at d = 3 it is 4.4e-13 relative just below 1e4.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    if not _check_order(p) < 1e4:
        raise ValueError(f"p must be below 1e4 for a chi_bar accurate to 1e-12, got {p:g}")
    q = p + 2.0
    steps = int(64 * q)
    xi = _on_sphere(np.ones(d - 1), q)
    for _ in range(steps):
        left, right = xi[:-1], xi[1:]
        grad = np.zeros_like(xi)
        grad[:-1] += right**p + p * right * left ** (p - 1)
        grad[1:] += left**p + p * left * right ** (p - 1)
        new = _on_sphere(grad ** (1.0 / (p + 1.0)), q)
        if np.max(np.abs(new - xi)) <= 1e-15:
            return _chi_objective(new, p)
        xi = new
    raise NonConvergenceError(f"chi_bar did not converge at d = {d}, p = {p:g} in {steps} steps", iterations=steps)
