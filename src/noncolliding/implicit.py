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
A row whose line search stalls, or that has taken `MAX_ITER` steps, is
accepted at x + delta, its last Newton correction, when that correction is at
most min(tol, POLISH_UNITS * eps) * max(1, max|a|) long and keeps the row
strictly ordered: roundoff, not distance from the solution, then holds the
residual up.  Any other row fails; `solve` and `solve_batch` hand it to
continuation along an ODE from the trivially ordered point J = (1, ..., d).
Every operation of the core acts on each row alone, so a row gets the same
bits alone as inside any batch.
Backtracking on F itself (Armijo) is deliberately not used: it would change
which steps are accepted, and with them the results.

Particles lie on axis 0 and rows on the last axis: one problem is (d,), a
batch (d, m), and pair arrays are (d, d, m) with D[i, j] = x_i - x_j, so the
sums over j run along axis 1.  `solve_batch` chooses once which axis is
innermost in memory: the rows when m > d and d < 8, so that each NumPy
operation loops over the long axis of rows instead of over d; otherwise the
particles, the order of a single problem, which keeps large d and single
solves at their speed.  No gather or scatter decides a row's bits.  NumPy
sums an innermost axis pairwise and any other axis in order, which agree
below 8 terms, so below d = 8 every sum over particles gets the same bits in
either order.  From d = 8 the batch stays particles-innermost, and the copies
the core makes (`copy(order="K")`, `*_like`) and plain indexing keep that
order.  `_rows` keeps the rows innermost where they are, for speed only.

The pair arrays of a dense c (the differences, the terms c / D, the Hessian
weights and the Hessian) live in the scratch that the run's `_Coupling`
owns (a solve of one problem takes a copy of the problem's without one, so
that no problem keeps a scratch): two (d, d, m) arrays for the largest batch,
laid out as NumPy lays out x[:, None] - x[None, :] for the batch's layout, so
every sum over particles keeps its order and its bits.  A smaller batch uses
a prefix of the same memory, so after its first solve a run allocates no pair
array, and no pair array outlives the evaluation or Hessian solve that fills
it.  An evaluation leaves the differences of its x in the scratch, and a
Hessian solve at the same x reuses them.  A coupling is therefore not for
concurrent use; nothing here uses threads.  `jacobian`, `residual` and
`_interaction` allocate fresh arrays.

`_Coupling` checks c and chooses its kernel (`_kernel`) once per run or
problem.  When d >= 3 and c has no non-zero entry beyond the first off-diagonal
(nearest-neighbour coupling), the core carries only the band diag(c, 1) and the
neighbour weights c_{i,i+1} / gap_i^2: evaluation costs O(d) per row and gives
the bits of the dense sums, whose other terms are exact zeros, and the
tridiagonal Hessians of all rows are solved by one LAPACK `dgtsv` call on the
rows stacked as one system with zero coupling between them.  Every other c, and
every c at d = 2, where the tridiagonal and dense solves round differently,
takes the dense O(d^2) evaluation and a dense O(d^3) solve: LU below
d = `CHOLESKY_FROM` and Cholesky from it.  The Hessian I + diag(sum_j w_ij) - w
is I plus a weighted graph Laplacian, so it is symmetric positive definite,
and it is exactly symmetric in floating point, because c is symmetric and
D_ji = -D_ij exactly.  Cholesky therefore reads only one triangle, at half
the flops of LU: `_cholesky_solve` factors each row's Hessian in place in the
scratch with LAPACK `dposv`, one row at a time.  Below `CHOLESKY_FROM` the
fixed cost of that call per row loses to LU on a single problem.  `dgtsv` and
`dposv` are bound on first use by the module `__getattr__` from SciPy's LAPACK
extension, which `_flapack` loads alone: `scipy.linalg.lapack` re-exports the
same routine objects, but importing it runs the whole `scipy.linalg` package.
An LU-only run never loads SciPy.  `_lu_solve` calls the LAPACK gufunc of
`np.linalg.solve` directly: its bits without the cost of its wrapper.
Each solver returns b's memory order and NaN in a row it cannot solve, which no
step accepts; `_newton` and `_homotopy` each run under one error state that
ignores the flags it raises.

Two structure-specific fixed-point iterations are available for tridiagonal
coefficients and for d = 3 with uniform coefficients.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import numbers
import os
import sys
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NonConvergenceError
from .model import _as_vector, is_tridiagonal, is_uniform, validate_interaction

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


class _Coupling:
    """A d x d c, checked by `validate_interaction`, the kernel `_kernel` picks
    for it, and the scratch that a dense kernel's pair arrays are written to.

    The scratch holds two pair arrays of the largest batch seen and is
    reused by every later solve, so a coupling is not for concurrent use.
    """

    # the scratch, its pair arrays per shape and layout of x, and the x whose
    # differences the first pair array holds, else None; empty until the
    # first solve with a dense kernel gives the coupling its own
    _scratch, _views, _differenced = np.empty(0), MappingProxyType({}), None

    def __init__(self, c, d):
        self.c = validate_interaction(c, d, "c")
        self.kernel = _kernel(self.c)

    def fresh(self):
        """This c and kernel without a scratch, for one solve of one problem."""
        fresh = object.__new__(_Coupling)
        fresh.c, fresh.kernel = self.c, self.kernel
        return fresh

    def _pair_scratch(self, x):
        # `_pairs` of x in the scratch
        key = x.shape, x.strides[0] == x.itemsize
        views = self._views.get(key)
        if views is None:
            n = 2 * len(x) * x.size
            if self._scratch.size < n or not self._views:  # the class's empty views at a first solve of 0 rows
                self._scratch, self._views, self._differenced = np.empty(n), {}, None
            views = self._views[key] = _pairs(x, self._scratch)
        return views

    def interaction(self, x):
        """`_interaction` of the kernel at a batch x (d, m).

        A dense kernel works in the scratch and leaves the differences of x
        there, which `hessian` at the same x, unchanged, reuses.
        """
        if self.kernel.ndim == 1:
            return _interaction(self.kernel[:, None], x)
        pair, quotient = self._pair_scratch(x)
        self._differenced = x
        return np.divide(self.kernel[..., None], _differences(x, pair), quotient).sum(axis=1)

    def hessian(self, x):
        """The Hessian of F for a dense kernel at x, (d,) or (d, m), in the
        scratch, where a Cholesky solve then overwrites it with its factor."""
        pair = self._pair_scratch(x)[0]
        diff = pair[0] if self._differenced is x else _differences(x, pair)
        self._differenced = None
        c = self.kernel if x.ndim == 1 else self.kernel[..., None]
        return _hessian(np.divide(c, np.square(diff, diff), diff), pair)


@dataclass(frozen=True, eq=False)
class ImplicitProblem:
    """Finite offsets a and symmetric non-negative coefficients c of the system."""

    a: np.ndarray
    c: np.ndarray
    coupling: _Coupling = field(init=False, repr=False)

    def __post_init__(self):
        a = _as_vector(self.a, "a")
        if not np.isfinite(a).all():
            raise ValueError("a must be finite")
        coupling = _Coupling(self.c, a.shape[0])
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", coupling.c)
        object.__setattr__(self, "coupling", coupling)

    @property
    def d(self):
        return self.a.shape[0]


# smallest d whose dense Hessians are solved by Cholesky (`_cholesky_solve`),
# not LU: the measured crossover, below which LU is faster on one problem
CHOLESKY_FROM = 48
# Newton steps per row, and sweeps of a fixed-point iteration, before a solve fails
MAX_ITER = 100
MAX_SWEEPS = 200_000
# longest last Newton correction, in rounding units eps * max(1, max|a|), that
# polishes a stalled row
POLISH_UNITS = 256


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
        steps = self.homotopy_steps
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
            raise ValueError(f"homotopy_steps must be an integer >= 1, got {steps!r}")


_DEFAULTS = SolverOptions()


@dataclass(frozen=True, eq=False)
class GapVector:
    """Consecutive gaps x_i = xi_{i+1} - xi_i plus the anchor xi_1."""

    x: np.ndarray
    anchor: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if not np.all(x > 0):
            raise ValueError("gaps must be strictly positive")
        if not np.isfinite(self.anchor):
            raise ValueError(f"anchor must be finite, got {self.anchor!r}")
        object.__setattr__(self, "x", x)

    def to_positions(self):
        return self.anchor + np.concatenate(([0.0], np.cumsum(self.x)))


@dataclass(frozen=True, eq=False)
class SolveResult:
    xi: np.ndarray
    method: str
    iterations: int
    residual_norm: float


def _check_ordered(xi, d):
    # xi as floats if it is a finite, strictly increasing (d,) vector
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (d,):
        raise ValueError(f"xi must have shape ({d},), got {xi.shape}")
    if not (np.isfinite(xi).all() and (np.diff(xi) > 0).all()):
        raise ValueError("xi must be finite and strictly increasing")
    return xi


def _rows(v, keep):
    """v[..., keep], for an index array or a mask keep, in v's memory order.

    Indexing puts the rows outermost and `take`/`compress` put them innermost,
    which keeps a rows-innermost batch fast; no row's bits depend on it.
    """
    if v.strides[-1] != v.itemsize:
        return v[..., keep]
    return np.compress(keep, v, axis=-1) if keep.dtype == bool else np.take(v, keep, axis=-1)


def _pairs(x, flat=None):
    """Two pair arrays of x, (d,) or (d, m), as ((D, a writable view of the
    diagonal of D), Q), in flat (at least 2 * d * d * m long) or fresh.

    Both are laid out as x[:, None] - x[None, :] is, which fixes the order of
    every sum over particles: (d, d) for one problem; (d, d, m) with the rows
    innermost for a rows-innermost x, else (m, d, d) with its first axis
    moved last.
    """
    d, n = len(x), len(x) * x.size
    flat = np.empty(2 * n) if flat is None else flat[: 2 * n]
    if x.ndim == 1:
        pairs, diagonal = flat.reshape(2, d, d), flat[: n : d + 1]
    elif x.strides[0] == x.itemsize:
        pairs = flat.reshape(2, -1, d, d).transpose(0, 2, 3, 1)
        diagonal = flat[:n].reshape(-1, d * d)[:, :: d + 1].T
    else:
        pairs, diagonal = flat.reshape(2, d, d, -1), flat[:n].reshape(d * d, -1)[:: d + 1]
    return (pairs[0], diagonal), pairs[1]


def _differences(x, out=None):
    # D[i, j] = x_i - x_j for x of shape (d,) or (d, m), with inf on the
    # diagonal so that the terms c / D and the Hessian weights c / D**2
    # vanish there; written to out, an array and its diagonal from `_pairs`
    diff, diagonal = out or _pairs(x)[0]
    np.subtract(x[:, None], x[None, :], diff)
    diagonal[...] = np.inf
    return diff


def _kernel(c):
    """The band diag(c, 1) when c couples only neighbours and d >= 3, else c.

    The functions below that take c accept either form, with one trailing
    axis of length 1 for each batch axis of x.  The corner c[0, -1] is
    non-zero for every uniform c, which it rejects before the O(d^2) test,
    and for every c at d = 2, where it is the first off-diagonal.
    """
    if c[0, -1] != 0 or not is_tridiagonal(c):
        return c
    return np.diag(c, 1)


def _interaction(c, x):
    """sum_{j != i} c_ij / (x_i - x_j) along the particle axis 0 of x.

    For a band c (see `_kernel`) only the neighbour terms +-c_{i,i+1} / gap_i
    are summed; the dense sum adds exact zeros to them, so the bits agree.
    """
    if c.ndim > x.ndim:
        return (c / _differences(x)).sum(axis=1)
    t = c / (x[1:] - x[:-1])
    s = np.zeros_like(x)
    s[1:] = t
    s[:-1] -= t
    return s


def _weights(c, x):
    # Hessian weights c_ij / (x_i - x_j)^2 at x: (d, d, ...) for a dense c,
    # the neighbour weights (d - 1, ...) for a band c
    if c.ndim > x.ndim:
        return c / _differences(x) ** 2
    return c / (x[1:] - x[:-1]) ** 2


def _row_sums(w):
    # sum_j w_ij of neighbour (d - 1, ...) Hessian weights: w_{i-1} + w_i, the
    # one rounding of the dense sum, whose other terms are exact zeros
    s = np.zeros_like(w, shape=(len(w) + 1,) + w.shape[1:])
    s[1:] = w
    s[:-1] += w
    return s


def _hessian(w, out):
    # I + diag(sum_j w_ij) - w, the Hessian of F, for weights of shape (d, d, ...),
    # written to out, an array and its diagonal from `_pairs`, which may hold w
    s = w.sum(axis=1)
    s += 1.0
    h = np.negative(w, out[0])
    out[1][...] = s
    return h


def _hessian_solve(coupling, x, b):
    """H^{-1} b for the Hessian H of F at x and b, both (d,) or (d, m), in
    the memory order of b.

    A band kernel's Hessians go to `dgtsv`.  A dense Hessian is formed in the
    coupling's scratch (`_Coupling.hessian`) and solved there by Cholesky from
    d = CHOLESKY_FROM, by LU below it.  A row whose Hessian is singular in
    floating point (weights so large that the identity is lost) gets NaN; the
    other rows keep the bits they get alone.
    """
    if coupling.kernel.ndim == 1:
        return _tridiagonal_solve(_weights(coupling.kernel if x.ndim == 1 else coupling.kernel[:, None], x), b)
    if len(x) >= CHOLESKY_FROM:
        return _cholesky_solve(coupling.hessian(x), b)
    return _lu_solve(coupling.hessian(x), b)


def __getattr__(name):
    if name not in ("dgtsv", "dposv"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    lapack = _flapack()  # binds both routines, keeping one already bound (or patched)
    globals().update({r: globals().get(r) or getattr(lapack, r) for r in ("dgtsv", "dposv")})
    return globals()[name]


def _flapack():
    """SciPy's f2py LAPACK extension, loaded alone (see the module docstring),
    or `scipy.linalg.lapack` when `scipy.linalg` is loaded already or the
    extension's file is not found."""
    spec = "scipy.linalg" not in sys.modules and importlib.util.find_spec("scipy")  # runs no scipy/__init__
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if spec else ():
        path = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            return module
    return importlib.import_module("scipy.linalg.lapack")


def _lapack(name):
    return globals().get(name) or __getattr__(name)


def _cholesky_solve(h, b):
    """h^{-1} b for one (d, d) h and b (d,), or for the m systems on the last
    axis of (d, d, m) and (d, m), one at a time, by LAPACK `dposv`.

    In the particles-innermost layout each (d, d) block of h is
    C-contiguous, so its transpose is the Fortran array that `dposv` factors
    in place (f2py copies any other block, so the solution taken is the one
    `dposv` returns); it reads one triangle, which is all of h because h is
    symmetric.  A system gets NaN when the factorisation meets a pivot that
    is not positive, when its solution is not finite, or when its diagonal
    is not finite: the weights are >= 0, so that is where a weight that is
    not finite shows, and it can leave `dposv` a finite solution.
    """
    y = b.copy(order="K")
    hs, ys = (h.T[None], y[None]) if b.ndim == 1 else (h.transpose(2, 1, 0), y.T)
    bad = ~np.isfinite(hs.diagonal(0, 1, 2)).all(axis=1)
    for i, (a, v) in enumerate(zip(hs, ys)):
        _, ys[i], info = _lapack("dposv")(a, v, lower=1, overwrite_a=1, overwrite_b=1)
        if info:
            bad[i] = True
    ys[bad | ~np.isfinite(ys).all(axis=1)] = np.nan
    return y


def _lu_solve(h, b):
    """h^{-1} b for one (d, d) h and b (d,), or for the m systems on the last
    axis of (d, d, m) and (d, m), in the memory order of b.

    The LAPACK gufunc that `np.linalg.solve` calls, called directly: the same
    bits without the wrapper's checks and conversions.  A singular system
    keeps the NaN that the gufunc fills it with, and raises the invalid flag.
    """
    y = np.empty_like(b)
    if b.ndim == 1:
        return _umath_linalg.solve1(h, b, out=y, signature="dd->d")
    _umath_linalg.solve(h.transpose(2, 0, 1), b.T[:, :, None], out=y.T[:, :, None], signature="dd->d")
    return y


def _tridiagonal_solve(w, b):
    """H^{-1} b for neighbour weights w (d - 1, ...), in the memory order of b:
    one LAPACK `dgtsv` call on the m row systems stacked as one of size m * d,
    with zero coupling.

    Elimination and back substitution cross from one row to the next only
    through a zero multiplier, which leaves each row the bits it gets alone
    while every value is finite.  A non-finite value, given or produced by
    overflow, would turn that product into NaN, so a stacked solve that is
    singular or not finite everywhere is made again one row at a time, and a
    row that fails alone gets NaN.
    """
    off = np.zeros(b.T.shape)
    off[..., :-1] = -w.T
    off = off.ravel()[:-1]
    x, info = _lapack("dgtsv")(off, (1.0 + _row_sums(w)).T.ravel(), off, b.T.reshape(-1, 1))[3:]
    y = np.full_like(b, np.nan)
    if info == 0 and np.isfinite(x).all():
        y[...] = x.reshape(b.T.shape).T
    elif b.ndim == 2:
        for i in range(b.shape[1]):
            y[:, i] = _tridiagonal_solve(w[:, i], b[:, i])
    return y


def residual(problem, xi):
    """r_i = xi_i - a_i - sum_{j != i} c_ij / (xi_i - xi_j).

    xi must be strictly increasing and of shape (d,), as for `jacobian`.
    """
    xi = _check_ordered(xi, problem.d)
    return xi - problem.a - _interaction(problem.c, xi)


def jacobian(problem, xi):
    """Symmetric positive definite matrix I - dg/dx of the system map."""
    xi = _check_ordered(xi, problem.d)
    return _hessian(_weights(problem.c, xi), _pairs(xi)[0])


def _pair_gap(da, c):
    # positive root of x = da + 2c/x, the gap of an isolated pair
    return 0.5 * (da + np.sqrt(da**2 + 8.0 * c))


def _anchor(a, gaps):
    # first position that puts mean(xi) at mean(a), as the exact solution has;
    # an elementwise sum, not a matrix product, keeps rows independent
    d = len(a)
    return a.sum(axis=0) / d - (np.arange(d - 1.0, 0.0, -1.0) * gaps.T).T.sum(axis=0) / d


def _initial_guess(a, c):
    # Decoupled-pair gaps for a of shape (d,) or (d, m): exact for d = 2,
    # ordered unless roundoff cancels a gap.
    gaps = _pair_gap((a[1:] - a[:-1]).T, np.diag(c, 1)).T
    x = np.empty_like(a)
    x[0] = 0.0
    if a.ndim == 2 and a.strides[-1] == a.itemsize:
        # rows innermost, cumsum makes m short scans; d - 1 row additions
        # are the same sequential sum, bit for bit, at a fraction of the cost
        x[1] = gaps[0]
        for i in range(1, len(gaps)):
            np.add(x[i], gaps[i], out=x[i + 1])
    else:
        np.cumsum(gaps, axis=0, out=x[1:])
    x += _anchor(a, gaps)
    return x


def _evaluate(a, coupling, x):
    """Residual and max-norm residual at each row of x (d, m).

    The max-norm is inf on rows that are not strictly ordered; their residual
    is that of the stand-in 0, 1, ..., d - 1 and means nothing.
    """
    unordered = ~(x[1:] > x[:-1]).all(axis=0)
    stand_in = unordered.any()
    if stand_in:
        x = x.copy(order="K")
        x[:, unordered] = np.arange(len(x))[:, None]
    r = x - a - coupling.interaction(x)
    rn = np.abs(r).max(axis=0)
    if stand_in:
        rn[unordered] = np.inf
    return r, rn


def _line_search(a, coupling, x, rn, delta):
    """Full Newton step on every row of x, halved up to 59 times on the rows
    where it leaves the ordered chamber or does not lower the max-norm
    residual rn.

    Returns the new iterate, residual and max-norm residual of every row, and
    the ascending indices of the rows that found no step; their entries are
    undefined.
    """
    x_new = x + delta
    r, rn_new = _evaluate(a, coupling, x_new)
    pending = (~(rn_new < rn)).nonzero()[0]
    for k in range(1, 60):
        if pending.size == 0:
            break
        trial = _rows(x, pending) + 0.5**k * _rows(delta, pending)
        r_t, rn_t = _evaluate(_rows(a, pending), coupling, trial)
        better = rn_t < rn[pending]
        moved = pending[better]
        x_new[:, moved], r[:, moved], rn_new[moved] = trial[:, better], r_t[:, better], rn_t[better]
        pending = pending[~better]
    return x_new, r, rn_new, pending


@np.errstate(all="ignore")
def _newton(a, coupling, xi, tol):
    """Damped Newton on each row of xi, shape (d, m), for the offsets in a.

    Returns per row the iterate, the accepted steps, the max-norm residual
    before any polish and whether the row converged.  A row stops once its
    residual is at most tol.  A row whose line search stalls, or that has
    taken MAX_ITER steps, is polished: it is accepted at x + delta, its last
    Newton correction, when max|delta| <= min(tol, POLISH_UNITS * eps) *
    max(1, max|a|) and x + delta is strictly ordered.  Every other row fails,
    as does one whose start is not ordered.  The iterate keeps the memory
    order of xi.
    """
    xi = xi.copy(order="K")
    r, rnorm = _evaluate(a, coupling, xi)
    iterations = np.zeros(len(rnorm), dtype=int)
    ok = np.zeros(len(rnorm), dtype=bool)
    # the state (rows, x, ar, r, rn) covers the rows still iterating and is
    # the whole batch at first; a row's iterate, residual and step count are
    # written back when it leaves, at step 0 if its start is not ordered (rn = inf)
    rows, x, ar, rn = np.arange(len(rnorm)), xi, a, rnorm
    for it in range(MAX_ITER + 1):
        live = (rn > tol) & (rn < np.inf)
        if not live.all():
            done = ~live
            left = rows[done]
            xi[:, left], rnorm[left], iterations[left], ok[left] = x[:, done], rn[done], it, rn[done] <= tol
            if not live.any():
                break
            rows, rn = rows[live], rn[live]
            x, ar, r = (_rows(v, live) for v in (x, ar, r))
        if rows.size == 0:
            break
        delta = _hessian_solve(coupling, x, -r)
        x_new, r_new, rn_new, stuck = _line_search(ar, coupling, x, rn, delta)
        if it == MAX_ITER:
            stuck = np.arange(len(rn))
        if stuck.size:
            left, step = rows[stuck], delta[:, stuck]
            polished = x[:, stuck] + step
            unit = min(tol, POLISH_UNITS * np.finfo(float).eps) * np.maximum(1.0, np.abs(ar[:, stuck]).max(axis=0))
            good = (np.abs(step).max(axis=0) <= unit) & (polished[1:] > polished[:-1]).all(axis=0)
            xi[:, left], rnorm[left], iterations[left] = x[:, stuck], rn[stuck], it
            xi[:, left[good]], ok[left[good]] = polished[:, good], True
            moved = np.ones(len(rn), dtype=bool)
            moved[stuck] = False
            rows, rn = rows[moved], rn_new[moved]
            x, ar, r = (_rows(v, moved) for v in (x_new, ar, r_new))
        else:
            x, r, rn = x_new, r_new, rn_new
    return xi, iterations, rnorm, ok


def _newton_row(problem, opts, start=None):
    """The Newton core on one problem; returns (xi, accepted steps) or raises."""
    a = problem.a[:, None]
    start = _initial_guess(a, problem.c) if start is None else start[:, None]
    xi, iterations, rnorm, ok = _newton(a, problem.coupling.fresh(), start, opts.tol)
    if not ok[0]:
        raise NonConvergenceError(
            "newton did not reach tolerance",
            method="newton", iterations=int(iterations[0]), residual=float(rnorm[0]),
        )
    return xi[:, 0], int(iterations[0])


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


@np.errstate(all="ignore")
def _homotopy(problem, opts):
    # solve_homotopy; returns (xi, accepted steps + polish iterations)
    coupling = problem.coupling.fresh()
    big_j = np.arange(1.0, problem.d + 1.0)
    g_j = problem.a - big_j + _interaction(coupling.kernel, big_j)
    # the 2-norm as np.linalg.norm computes it for a real vector
    g_norm = np.sqrt(g_j.dot(g_j))

    def velocity(x):
        return _hessian_solve(coupling, x, g_j) if (x[1:] > x[:-1]).all() else np.full_like(g_j, np.nan)

    x, k1 = big_j, velocity(big_j)
    t = 0.0
    accepted = 0
    h = 1.0 / opts.homotopy_steps
    while t < 1.0 - 1e-15:
        step = min(h, 1.0 - t)
        while True:
            # k1 is the velocity at x, which a rejected retry has not moved; a
            # stage with a NaN makes every later one NaN, and the bound rejects it
            k2 = velocity(x + 0.5 * step * k1)
            k3 = velocity(x + 0.5 * step * k2)
            k4 = velocity(x + step * k3)
            trial = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            v = velocity(trial)
            if np.sqrt(v.dot(v)) <= g_norm * (1.0 + 1e-9) + 1e-300:
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
    # the gaps as a GapVector if their residual is at most tol * max(1, max|a|), else None
    gv = GapVector(gaps, float(_anchor(problem.a, gaps)))
    r = np.max(np.abs(residual(problem, gv.to_positions())))
    return gv if r <= opts.tol * max(1.0, np.max(np.abs(problem.a))) else None


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
    if not is_tridiagonal(problem.c):
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
    if not is_uniform(problem.c):
        raise ValueError("alternating_d3 requires uniform coefficients")
    sq = np.sqrt(float(problem.c[0, 1]))
    na, nb = np.diff(problem.a) / sq
    # the starting pair in normalized form: pair gaps for coefficients 1 and 3/4
    x, y = _pair_gap(na, 1.0), _pair_gap(nb - (abs(na) + np.sqrt(2.0)) / 2.0, 0.75)
    slack = 1e-12
    before = None  # iterate n - 1, of the parity of iterate n + 1
    for n in range(1, MAX_SWEEPS):
        px = na - 1.0 / y + 1.0 / (x + y)
        py = nb - 1.0 / x + 1.0 / (x + y)
        x_next, y_next = _pair_gap(px, 1.0), _pair_gap(py, 1.0)
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
    cause = _unrepresentable(problem) or last
    raise NonConvergenceError(f"all applicable methods failed: {cause}", method=opts.method) from last


def _unrepresentable(problem):
    # why no ordered double-precision solution exists, else None; the decoupled-pair
    # gaps are exact at d = 2, and bound the solution's when c couples only neighbours
    unit = np.finfo(float).eps * max(1.0, np.max(np.abs(problem.a)))
    if not _pair_gap(np.diff(problem.a), np.diag(problem.c, 1)).min() >= unit:
        return f"the solution's gap is below the spacing of doubles at this scale, {unit:.3g}"


def solve_batch(a, c):
    """Solve many systems sharing one coefficient matrix c, with the default options.

    a has shape (m, d); returns ordered solutions of the same shape.  a and a
    matrix c are refused as `ImplicitProblem` refuses them; c may also be its
    `_Coupling`.  Every row runs the Newton core of `solve` and gets the bits
    it gets there; rows where Newton fails fall back to `solve_homotopy` one
    at a time, so the result meets the same residual tolerance as the scalar
    path.  A row that fails there too raises with the cause `solve` names.
    The core runs on a.T, with rows innermost in memory when m > d and d < 8
    and particles innermost otherwise (see the module docstring).
    """
    a = np.asarray(a, dtype=float)
    m, d = a.shape
    if not np.isfinite(a).all():
        raise ValueError("a must be finite")
    coupling = c if isinstance(c, _Coupling) else _Coupling(c, d)
    a = np.ascontiguousarray(a.T) if d < min(m, 8) else np.ascontiguousarray(a).T
    xi, _, _, ok = _newton(a, coupling, _initial_guess(a, coupling.c), _DEFAULTS.tol)
    for i in np.flatnonzero(~ok):
        problem = ImplicitProblem(a[:, i], coupling.c)
        try:
            xi[:, i] = solve_homotopy(problem)
        except NonConvergenceError as exc:
            if cause := _unrepresentable(problem):
                raise NonConvergenceError(cause, method=exc.method) from exc
            raise
    return xi.T
