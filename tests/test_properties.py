"""Property tests of the per-step solve over random problems (hypothesis).

Problems are drawn with d in 2..8, uniform or tridiagonal coefficients c and
offsets a over several decades.  Inside the range where the ordered solution
is representable and the solve converges, `solve` must return an ordered
solution within sqrt(d) * tol + 4 rounding units of the exact one, with the
same bits as the same row inside `solve_batch`.  Outside it, every solve
raises NonConvergenceError or returns an ordered solution, never anything
else.  The examples are derandomized so the suite is reproducible.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from noncolliding import ImplicitProblem, NonConvergenceError, solve
from noncolliding.implicit import _Coupling, _evaluate, _kernel, _row_sums, _weights, solve_batch

TOL = 1e-12  # SolverOptions().tol
EPS = np.finfo(float).eps


def coefficient_matrix(d, kind, values):
    c = np.zeros((d, d))
    if kind == "uniform":
        c[:] = values[0]
        np.fill_diagonal(c, 0.0)
    else:
        idx = np.arange(d - 1)
        c[idx, idx + 1] = c[idx + 1, idx] = values
    return c


@st.composite
def problems(draw, spread_decades, max_rows):
    """(a, c): m rows of offsets sharing one coefficient matrix.

    The smallest coefficient is 10^log_c; the offsets have magnitude up to
    sqrt(10^log_c) * 10^spread, and spread_decades bounds the spread.  The
    largest Hessian weight grows like (offset scale)^2 / c, so the spread sets
    how close to collision, relative to roundoff, the solution comes.
    """
    d = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["uniform", "tridiagonal"]))
    log_c = draw(st.floats(-4.0, 2.0))
    boost = draw(st.lists(st.floats(0.0, 1.0), min_size=d - 1, max_size=d - 1))
    c = coefficient_matrix(d, kind, 10.0 ** (log_c + np.array(boost)))
    scale = 10.0 ** (0.5 * log_c + draw(st.floats(*spread_decades)))
    m = draw(st.integers(1, max_rows))
    unit = draw(st.lists(st.floats(-1.0, 1.0), min_size=m * d, max_size=m * d))
    return scale * np.array(unit).reshape(m, d), c


def assert_solution(a, c, xi):
    """Ordered, and within sqrt(d) * tol + 4 rounding units eps * max(1, max|a|)
    of the exact solution.

    The distance is one Newton correction J^-1 r, with the residual r at xi
    taken exactly in rational arithmetic and the Jacobian J = I + diag(sum_j
    w_ij) - w, w_ij = c_ij / (xi_i - xi_j)^2, built here.  A row that stops at
    a max-norm residual of tol is within sqrt(d) * tol, because J >= I.
    """
    assert np.all(np.diff(xi) > 0)
    d = len(xi)
    x, ar = [Fraction(v) for v in xi], [Fraction(v) for v in a]
    exact = [x[i] - ar[i] - sum(Fraction(c[i, j]) / (x[i] - x[j]) for j in range(d) if c[i, j]) for i in range(d)]
    w = c / (xi[:, None] - xi[None, :] + np.eye(d)) ** 2
    correction = np.linalg.solve(np.eye(d) + np.diag(w.sum(axis=1)) - w, np.array(exact, dtype=float))
    assert np.max(np.abs(correction)) <= np.sqrt(d) * TOL + 4 * EPS * max(1.0, np.max(np.abs(a)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(problems(spread_decades=(-3.0, 4.5), max_rows=6))
def test_solution_properties_and_batch_bits(problem):
    a, c = problem
    batch = solve_batch(a, c)
    for row, xi_batch in zip(a, batch):
        xi = solve(ImplicitProblem(row, c)).xi
        assert_solution(row, c, xi)
        assert xi.tobytes() == xi_batch.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(problems(spread_decades=(4.0, 10.0), max_rows=2))
def test_near_collision_never_unordered(problem):
    a, c = problem
    for row in a:
        try:
            xi = solve(ImplicitProblem(row, c)).xi
        except NonConvergenceError:
            continue
        assert_solution(row, c, xi)
    try:
        batch = solve_batch(a, c)
    except NonConvergenceError:
        return
    assert np.all(np.diff(batch, axis=1) > 0)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.floats(6.0, 12.0), st.floats(-6.0, 0.0))
def test_unrepresentable_gap_raises(log_l, log_shrink):
    # a = (0, -L): the exact gap, about 2c/L, is below a quarter ulp of L/2,
    # so no pair of doubles near -L/2 solves the system
    big = 10.0**log_l
    cval = big * np.spacing(big / 2) / 8 * 10.0**log_shrink
    a = np.array([0.0, -big])
    c = coefficient_matrix(2, "uniform", [cval])
    for attempt in (lambda: solve(ImplicitProblem(a, c)), lambda: solve_batch(a[None], c)):
        try:
            attempt()
        except NonConvergenceError:
            continue
        raise AssertionError("an unrepresentable solution was returned")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 64), st.integers(1, 5), st.floats(-4.0, 2.0), st.integers(0, 2**32 - 1))
def test_neighbour_kernel_has_the_dense_bits(d, m, log_c, seed):
    # the band evaluation drops only exact zeros of the dense sums: the same
    # residual on ordered rows, the same max-norm (inf on unordered rows) and
    # the same weight row sums, which set the Hessian diagonal
    rng = np.random.default_rng(seed)
    c = coefficient_matrix(d, "tridiagonal", 10.0 ** (log_c + rng.uniform(0.0, 1.0, d - 1)))
    x = np.sort(rng.normal(size=(m, d)), axis=1) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))
    x[rng.random(m) < 0.3, ::2] *= -1.0  # some rows unordered
    a = x + rng.normal(size=(m, d))
    # particles on axis 0, rows on axis 1
    band, dense = _Coupling(c, d), _Coupling(c, d)
    dense.kernel = c
    r, rn = _evaluate(a.T, dense, x.T)
    r_band, rn_band = _evaluate(a.T, band, x.T)
    ordered = rn < np.inf
    assert rn.tobytes() == rn_band.tobytes()
    assert r[:, ordered].tobytes() == r_band[:, ordered].tobytes()
    w, w_band = _weights(c[:, :, None], x.T[:, ordered]), _weights(_kernel(c)[:, None], x.T[:, ordered])
    assert w.sum(axis=1).tobytes() == _row_sums(w_band).tobytes()

