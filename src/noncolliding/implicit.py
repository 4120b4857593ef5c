"""Solvers for the per-step nonlinear system

    xi_i = a_i + sum_{j != i} c_ij / (xi_i - xi_j),   i = 1..d,

which has a unique strictly ordered solution whenever c is symmetric,
non-negative, and positive on the first off-diagonal.  The system is the
gradient condition of the strictly convex energy

    F(xi) = |xi - a|^2 / 2 - sum_{i<j} c_ij log(xi_j - xi_i)

on the ordered chamber, and `jacobian` is the Hessian of F.

One damped-Newton core serves every caller.  It iterates on a batch of rows
(one problem per row, all sharing c) from the decoupled-pair guess and takes
the longest step 2^-k, k < 60, whose iterate is strictly ordered and has a
smaller max-norm residual.  A row stops once its residual is at most `tol`.
A row whose line search stalls, or that spends `MAX_ITER` steps, is accepted
if its residual is below a per-row roundoff floor and fails otherwise; `solve`
and `solve_batch` hand a failed row to continuation along an ODE from the
trivially ordered point J = (1, ..., d).  Every operation of the core acts on
each row alone, so a row gets the same bits alone as inside any batch.
Backtracking on F itself (Armijo) is deliberately not used: it would change
which steps are accepted, and with them the results.

Two structure-specific fixed-point iterations are available for tridiagonal
coefficients and for d = 3 with uniform coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .model import is_tridiagonal, is_uniform, validate_interaction

__all__ = [
    "ImplicitProblem",
    "SolverOptions",
    "GapVector",
    "SolveResult",
    "residual",
    "jacobian",
    "solve_newton",
    "solve_homotopy",
    "solve_fixed_point_nn",
    "solve_alternating_d3",
    "solve",
    "solve_batch",
]


@dataclass(frozen=True, eq=False)
class ImplicitProblem:
    """Offsets a and symmetric non-negative coefficients c of the system."""

    a: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 1:
            raise ValueError("a must be a vector")
        if a.shape[0] < 2:
            raise ValueError("need at least two particles")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", validate_interaction(self.c, a.shape[0], "c"))

    @property
    def d(self):
        return self.a.shape[0]

    def is_tridiagonal(self):
        return is_tridiagonal(self.c)

    def is_uniform(self):
        return is_uniform(self.c)


# Newton steps per row, and sweeps of a fixed-point iteration, before a solve fails
MAX_ITER = 100
MAX_SWEEPS = 200_000


@dataclass(frozen=True)
class SolverOptions:
    method: str = "auto"
    tol: float = 1e-12
    homotopy_steps: int = 64

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")
        if self.method != "auto" and self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


_DEFAULTS = SolverOptions()


@dataclass(frozen=True, eq=False)
class GapVector:
    """Consecutive gaps x_i = xi_{i+1} - xi_i plus the anchor xi_1."""

    x: np.ndarray
    anchor: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if np.any(x <= 0):
            raise ValueError("gaps must be strictly positive")
        object.__setattr__(self, "x", x)

    def to_positions(self):
        return self.anchor + np.concatenate(([0.0], np.cumsum(self.x)))


@dataclass(frozen=True, eq=False)
class SolveResult:
    xi: np.ndarray
    method: str
    iterations: int
    residual_norm: float


def _check_ordered(xi):
    xi = np.asarray(xi, dtype=float)
    if np.any(np.diff(xi) <= 0):
        raise ValueError("xi must be strictly increasing")
    return xi


def _differences(xi):
    # xi_i - xi_j along the last axis of xi, with inf on the diagonal so that
    # the terms c / diff and the Hessian weights c / diff**2 vanish there
    idx = np.arange(xi.shape[-1])
    diff = xi[..., :, None] - xi[..., None, :]
    diff[..., idx, idx] = np.inf
    return diff


def _interaction(c, xi):
    """sum_{j != i} c_ij / (xi_i - xi_j) along the last axis of xi."""
    return (c / _differences(xi)).sum(axis=-1)


def _hessian(w):
    # I + diag(sum_j w_ij) - w, the Hessian of F, for weights of shape (..., d, d)
    idx = np.arange(w.shape[-1])
    h = -w
    h[..., idx, idx] = 1.0 + w.sum(axis=-1)
    return h


def _hessian_solve(w, b):
    """H^{-1} b on each row, for Hessian weights w (m, d, d) and b (m, d).

    A row whose Hessian is singular in floating point (weights so large that
    the identity is lost) gets NaN, which no line search or continuation
    step accepts; the other rows are solved one by one with the same bits.
    """
    try:
        return np.linalg.solve(_hessian(w), b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(b) == 1:
            return np.full_like(b, np.nan)
        return np.concatenate([_hessian_solve(w[i : i + 1], b[i : i + 1]) for i in range(len(b))])


def residual(problem, xi):
    """r_i = xi_i - a_i - sum_{j != i} c_ij / (xi_i - xi_j)."""
    xi = _check_ordered(xi)
    return xi - problem.a - _interaction(problem.c, xi)


def jacobian(problem, xi):
    """Symmetric positive definite matrix I - dg/dx of the system map."""
    xi = _check_ordered(xi)
    return _hessian(problem.c / _differences(xi) ** 2)


def _pair_gap(da, c):
    # positive root of x = da + 2c/x, the gap of an isolated pair
    return 0.5 * (da + np.sqrt(da**2 + 8.0 * c))


def _anchor(a, gaps):
    # first position that puts mean(xi) at mean(a), as the exact solution has;
    # an elementwise sum, not a matrix product, keeps rows independent
    d = a.shape[-1]
    return a.mean(axis=-1) - np.sum((d - 1 - np.arange(d - 1)) * gaps, axis=-1) / d


def _initial_guess(a, c):
    # Decoupled-pair gaps for each row of a: exact for d = 2, ordered unless
    # roundoff cancels a gap.
    gaps = _pair_gap(np.diff(a, axis=-1), np.diag(c, 1))
    start = np.zeros(gaps.shape[:-1] + (1,))
    return _anchor(a, gaps)[..., None] + np.concatenate([start, np.cumsum(gaps, axis=-1)], axis=-1)


def _residual_floor(a, tol, x=None, w=None):
    """Residual at which a stalled row of a counts as converged.

    The floor is tol * problem scale, raised near collision by the Hessian
    weights w at the iterate x: moving positions by u = min(tol, 4 eps) *
    max|a| moves r_i by up to u times 1 + sum_j w_ij, and roundoff keeps
    doubles from doing better.  That linear bound holds once the smallest gap
    spans 2^20 units eps * max|a|; on narrower gaps the raise stays capped at
    100 * tol * scale, so a solution that doubles cannot resolve is refused.
    """
    amax = np.maximum(1.0, np.max(np.abs(a), axis=-1))
    base = tol * amax
    if w is None:
        return base
    eps = np.finfo(float).eps
    spread = 1.0 + w.sum(axis=-1).max(axis=-1)
    capped = np.maximum(base, np.minimum(64.0 * eps * amax * spread, 100.0 * base))
    resolved = np.diff(x, axis=-1).min(axis=-1) >= 2.0**20 * eps * amax
    return np.where(resolved, np.maximum(capped, min(tol, 4.0 * eps) * amax * spread), capped)


def _evaluate(a, c, x):
    """Residual, max-norm residual and Hessian weights at each row of x.

    The max-norm is inf on rows that are not strictly ordered; their residual
    and weights are left undefined.
    """
    ordered = (x[:, 1:] > x[:, :-1]).all(axis=1)
    if not ordered.all():
        r, rn, w = np.empty_like(x), np.full(len(x), np.inf), np.empty(x.shape + x.shape[-1:])
        r[ordered], rn[ordered], w[ordered] = _evaluate(a[ordered], c, x[ordered])
        return r, rn, w
    diff = _differences(x)
    r = x - a - (c / diff).sum(axis=-1)
    return r, np.abs(r).max(axis=1), c / diff**2


def _line_search(a, c, x, rn, delta):
    """Full Newton step on every row of x, halved up to 59 times on the rows
    where it leaves the ordered chamber or does not lower the max-norm
    residual rn.

    Returns the new iterate, residual, max-norm residual and Hessian weights
    of every row, and the mask of the rows that found no step; their entries
    are undefined.
    """
    x_new = x + delta
    r, rn_new, w = _evaluate(a, c, x_new)
    pending = np.flatnonzero(~(rn_new < rn))
    for k in range(1, 60):
        if pending.size == 0:
            break
        trial = x[pending] + 0.5**k * delta[pending]
        r_t, rn_t, w_t = _evaluate(a[pending], c, trial)
        better = rn_t < rn[pending]
        moved = pending[better]
        x_new[moved], r[moved], rn_new[moved], w[moved] = trial[better], r_t[better], rn_t[better], w_t[better]
        pending = pending[~better]
    stuck = np.zeros(len(x), dtype=bool)
    stuck[pending] = True
    return x_new, r, rn_new, w, stuck


def _newton(a, c, xi, opts):
    """Damped Newton on each row of xi, shape (m, d), for the offsets in a.

    Returns per row the iterate, the accepted steps, the max-norm residual
    and whether the row converged.  A row fails when its start is not
    strictly ordered, or when it stalls or spends MAX_ITER steps above its
    residual floor.
    """
    m = len(xi)
    xi = xi.copy()
    r, rnorm, w = _evaluate(a, c, xi)
    iterations = np.zeros(m, dtype=int)
    ok = np.zeros(m, dtype=bool)
    # the state (rows, x, ar, r, rn, w) covers the rows still iterating
    rows = np.flatnonzero(rnorm < np.inf)
    x, ar, r, rn, w = xi[rows], a[rows], r[rows], rnorm[rows], w[rows]
    for it in range(MAX_ITER + 1):
        xi[rows], rnorm[rows], iterations[rows] = x, rn, it
        live = rn > opts.tol
        ok[rows[~live]] = True
        if not live.all():
            rows, x, ar, r, rn, w = (v[live] for v in (rows, x, ar, r, rn, w))
        if rows.size == 0 or it == MAX_ITER:
            break
        delta = _hessian_solve(w, -r)
        x_new, r_new, rn_new, w_new, stuck = _line_search(ar, c, x, rn, delta)
        if stuck.any():
            ok[rows[stuck]] = rn[stuck] <= _residual_floor(ar[stuck], opts.tol, x[stuck], w[stuck])
            moved = ~stuck
            rows, x, ar, r, rn, w = (v[moved] for v in (rows, x_new, ar, r_new, rn_new, w_new))
        else:
            x, r, rn, w = x_new, r_new, rn_new, w_new
    if rows.size:
        # these rows spent MAX_ITER steps above tol
        ok[rows] = rn <= _residual_floor(ar, opts.tol, x, w)
    return xi, iterations, rnorm, ok


def _newton_row(problem, opts, start=None):
    """The Newton core on one problem; returns (xi, accepted steps) or raises."""
    a = problem.a[None]
    start = _initial_guess(a, problem.c) if start is None else start[None]
    xi, iterations, rnorm, ok = _newton(a, problem.c, start, opts)
    if not ok[0]:
        raise NonConvergenceError(
            "newton did not reach tolerance",
            method="newton", iterations=int(iterations[0]), residual=float(rnorm[0]),
        )
    return xi[0], int(iterations[0])


def solve_newton(problem, opts=None):
    """Damped Newton from the decoupled-pair initial guess."""
    return _newton_row(problem, opts or _DEFAULTS)[0]


def solve_homotopy(problem, opts=None):
    """Continuation from the trivially ordered point J = (1, ..., d).

    Integrates dx/dt = (I - dg/dx)^{-1} g(J) from x(0) = J to t = 1 with
    classical 4-stage steps, then polishes with Newton.  Accepted steps must
    keep the trajectory strictly ordered and satisfy the derivative bound
    |dx/dt| <= |g(J)|; a violating step is retried at half length.  The
    velocity checked at an accepted point is the next step's first stage and
    a retry keeps its first stage, so every stage costs one Hessian solve.
    """
    return _homotopy(problem, opts or _DEFAULTS)[0]


def _homotopy(problem, opts):
    # solve_homotopy; returns (xi, accepted steps + polish iterations)
    c = problem.c
    big_j = np.arange(1.0, problem.d + 1.0)
    g_j = problem.a - big_j + _interaction(c, big_j)
    g_norm = np.linalg.norm(g_j)

    def velocity(x):
        if not (x[1:] > x[:-1]).all():
            return None
        return _hessian_solve(c / _differences(x[None]) ** 2, g_j[None])[0]

    x, k1 = big_j, velocity(big_j)
    t = 0.0
    accepted = 0
    h = 1.0 / opts.homotopy_steps
    while t < 1.0 - 1e-15:
        step = min(h, 1.0 - t)
        while True:
            # k1 is the velocity at x, which a rejected retry has not moved
            k2 = velocity(x + 0.5 * step * k1)
            k3 = velocity(x + 0.5 * step * k2) if k2 is not None else None
            k4 = velocity(x + step * k3) if k3 is not None else None
            if k4 is not None:
                trial = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                v = velocity(trial)
                if v is not None and np.linalg.norm(v) <= g_norm * (1.0 + 1e-9) + 1e-300:
                    break
            step *= 0.5
            if step < 1e-8:
                raise NonConvergenceError(
                    "continuation step collapsed", method="homotopy", residual=None
                )
        x, k1 = trial, v
        t += step
        accepted += 1
    xi, polish = _newton_row(problem, opts, start=x)
    return xi, accepted + polish


def _nn_map(aa, cc, x):
    # one sweep of the monotone iteration for the tridiagonal gap system
    t = aa.copy()
    t[:-1] -= cc[1:] / x[1:]
    t[1:] -= cc[:-1] / x[:-1]
    return _pair_gap(t, cc)


def _converged_gaps(problem, opts, gaps):
    # the gaps as a GapVector if their positions meet the residual floor, else None
    gv = GapVector(gaps, float(_anchor(problem.a, gaps)))
    r = np.max(np.abs(residual(problem, gv.to_positions())))
    return gv if r <= _residual_floor(problem.a, opts.tol) else None


def solve_fixed_point_nn(problem, opts=None):
    """Monotone fixed-point iteration for tridiagonal coefficients.

    Starts from the decoupled gaps x_i = (da_i + sqrt(da_i^2 + 8 c_i)) / 2 and
    sweeps the update map; every iterate is coordinate-wise <= its predecessor.
    Stops once both the sweep-to-sweep change and the residual of the
    recovered positions are within tolerance.
    """
    return _fixed_point_nn(problem, opts or _DEFAULTS)[0]


def _fixed_point_nn(problem, opts):
    # solve_fixed_point_nn; returns (GapVector, sweeps)
    if not problem.is_tridiagonal():
        raise ValueError("fixed_point_nn requires tridiagonal coefficients")
    aa, cc = np.diff(problem.a), np.diag(problem.c, 1)
    x = _pair_gap(aa, cc)
    if problem.d == 2:
        return GapVector(x, float(_anchor(problem.a, x))), 1
    for sweep in range(1, MAX_SWEEPS + 1):
        x_next = _nn_map(aa, cc, x)
        if np.any(x_next > x * (1.0 + 1e-13) + 1e-300):
            raise NonConvergenceError(
                "monotone iteration increased", method="fixed_point_nn", iterations=sweep
            )
        change = np.max(np.abs(x_next - x))
        x = x_next
        if change <= opts.tol:
            gv = _converged_gaps(problem, opts, x)
            if gv is not None:
                return gv, sweep
    raise NonConvergenceError(
        "fixed-point iteration did not converge", method="fixed_point_nn", iterations=MAX_SWEEPS
    )


def alternating_d3_initializers(a, b):
    """Starting pair of the d = 3 alternating iteration in normalized form."""
    x1 = 0.5 * (a + np.sqrt(a**2 + 8.0))
    shift = b - (abs(a) + np.sqrt(2.0)) / 2.0
    y1 = 0.5 * (shift + np.sqrt(shift**2 + 6.0))
    return x1, y1


def solve_alternating_d3(problem, opts=None):
    """Alternating gap iteration for d = 3 with uniform coefficients.

    The problem is rescaled by xi = sqrt(c) * zeta to unit coefficients,
    iterated in the normalized variables, and scaled back.  The odd/even
    subsequences interleave: x odd decreasing, x even increasing, y odd
    increasing, y even decreasing; this is asserted along the way.  Not
    offered for d >= 4, where the generalized iteration can diverge.
    """
    return _alternating_d3(problem, opts or _DEFAULTS)[0]


def _alternating_d3(problem, opts):
    # solve_alternating_d3; returns (GapVector, sweeps)
    if problem.d != 3:
        raise ValueError("alternating_d3 requires d = 3")
    if not problem.is_uniform():
        raise ValueError("alternating_d3 requires uniform coefficients")
    c = float(problem.c[0, 1])
    sq = np.sqrt(c)
    na, nb = np.diff(problem.a) / sq
    x, y = alternating_d3_initializers(na, nb)
    slack = 1e-12
    before = None  # iterate n - 1, of the parity of iterate n + 1
    for n in range(1, MAX_SWEEPS):
        px = na - 1.0 / y + 1.0 / (x + y)
        py = nb - 1.0 / x + 1.0 / (x + y)
        x_next = 0.5 * (px + np.sqrt(px**2 + 8.0))
        y_next = 0.5 * (py + np.sqrt(py**2 + 8.0))
        if before is not None:
            # interleaving of the odd/even subsequences, up to roundoff
            xb, yb = before
            if n % 2 == 0:  # iterate n + 1 is odd: x falls, y rises
                ok = x_next <= xb + slack and y_next >= yb - slack
            else:
                ok = x_next >= xb - slack and y_next <= yb + slack
            if not ok:
                raise NonConvergenceError(
                    "alternating subsequences lost interleaving",
                    method="alternating_d3",
                    iterations=n,
                )
        change = abs(x_next - x) + abs(y_next - y)
        before, (x, y) = (x, y), (x_next, y_next)
        if change <= opts.tol:
            gv = _converged_gaps(problem, opts, sq * np.array([x, y]))
            if gv is not None:
                return gv, n
    raise NonConvergenceError(
        "alternating iteration did not converge", method="alternating_d3", iterations=MAX_SWEEPS
    )


# method -> solver(problem, opts) returning (positions or GapVector, iterations)
METHODS = {
    "newton": _newton_row,
    "homotopy": _homotopy,
    "fixed_point_nn": _fixed_point_nn,
    "alternating_d3": _alternating_d3,
}


def solve(problem, opts=None):
    """Dispatch to the requested method, with Newton -> continuation fallback on auto.

    Structure-specific methods are only applicable when their preconditions
    hold; the alternating iteration is deliberately not offered for d >= 4.
    Returns a SolveResult carrying the solution, the method that produced it,
    an iteration count and the final residual max-norm.
    """
    opts = opts or _DEFAULTS
    names = ("newton", "homotopy") if opts.method == "auto" else (opts.method,)
    last = None
    for name in names:
        try:
            xi, iterations = METHODS[name](problem, opts)
        except NonConvergenceError as exc:
            last = exc
            continue
        if isinstance(xi, GapVector):
            xi = xi.to_positions()
        r = np.max(np.abs(residual(problem, xi)))
        return SolveResult(xi=xi, method=name, iterations=iterations, residual_norm=float(r))
    raise NonConvergenceError(
        f"all applicable methods failed: {last}", method=opts.method
    ) from last


def solve_batch(a, c):
    """Solve many systems sharing one coefficient matrix c, with the default options.

    a has shape (m, d); returns ordered solutions of the same shape.  Every
    row runs the Newton core of `solve` and gets the bits it gets there;
    rows where Newton fails fall back to `solve_homotopy` one at a time, so
    the result meets the same residual tolerance as the scalar path.
    """
    a = np.asarray(a, dtype=float)
    xi, _, _, ok = _newton(a, c, _initial_guess(a, c), _DEFAULTS)
    for i in np.flatnonzero(~ok):
        xi[i] = solve_homotopy(ImplicitProblem(a[i], c))
    return xi
