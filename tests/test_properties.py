"""Property tests of the per-step solve over random problems (hypothesis).

Problems are drawn with d in 2..8, uniform or tridiagonal coefficients c and
offsets a over several decades.  Inside the range where the ordered solution
is representable and the solve converges, `solve` must return an ordered
solution within sqrt(d) * tol + 4 rounding units of the exact one, with the
same bits as the same row inside `solve_batch`.  Outside it, every solve
raises NonConvergenceError or returns an ordered solution, never anything
else.  The examples are derandomized so the suite is reproducible.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from noncolliding import ImplicitProblem, NonConvergenceError, solve
from noncolliding.implicit import (
    LDL_UP_TO, METHODS, SolverOptions, _Coupling, _evaluate, _hessian_solve, _interaction, _weights,
    solve_batch,
)
from noncolliding.model import is_tridiagonal, is_uniform

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
    w = c / (xi[:, None] - xi[None, :] + np.eye(d)) ** 2
    r = np.array(exact_residual(a, c, xi), dtype=float)
    correction = np.linalg.solve(np.eye(d) + np.diag(w.sum(axis=1)) - w, r)
    assert np.max(np.abs(correction)) <= np.sqrt(d) * TOL + 4 * EPS * max(1.0, np.max(np.abs(a)))


def exact_residual(a, c, xi):
    """The residual at xi, each entry a Fraction: exact, with no rounding."""
    d = len(xi)
    x, ar = [Fraction(v) for v in xi], [Fraction(v) for v in a]
    return [x[i] - ar[i] - sum(Fraction(c[i, j]) / (x[i] - x[j]) for j in range(d) if c[i, j]) for i in range(d)]


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
    # the band's ring drops only exact zeros of the dense sums: the same
    # residual on ordered rows as the pair arrays, the same max-norm (inf on
    # unordered rows) and the same Hessian diagonals
    rng = np.random.default_rng(seed)
    c = coefficient_matrix(d, "tridiagonal", 10.0 ** (log_c + rng.uniform(0.0, 1.0, d - 1)))
    x = np.sort(rng.normal(size=(m, d)), axis=1) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))
    x[rng.random(m) < 0.3, ::2] *= -1.0  # some rows unordered
    a = x + rng.normal(size=(m, d))
    # particles on axis 0, rows on axis 1
    band, dense = _Coupling(c, d), _Coupling(c, d)
    dense.kernel, dense.ring = c, None
    r, rn = _evaluate(a.T, dense, x.T)
    r_band, rn_band = _evaluate(a.T, band, x.T)
    ordered = rn < np.inf
    assert rn.tobytes() == rn_band.tobytes()
    assert r[:, ordered].tobytes() == r_band[:, ordered].tobytes()
    w, s_band = _weights(c[:, :, None], x.T[:, ordered]), band.weights(x.T[:, ordered])[1]
    assert (w.sum(axis=1) + 1.0).tobytes() == s_band.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, LDL_UP_TO).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.floats(-3.0, 3.0), min_size=d * (d - 1) // 2, max_size=d * (d - 1) // 2),
            st.integers(1, 6).flatmap(
                lambda m: st.lists(st.floats(-2.0, 2.0), min_size=d * m, max_size=d * m)
            ),
            st.lists(st.tuples(st.integers(0, 17), st.floats(-170.0, -2.0)), max_size=2),
            st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d),
            st.booleans(),
        )
    )
)
def test_dense_ldl_rows_have_the_same_bits_in_any_batch(drawn):
    # a dense Hessian at d <= LDL_UP_TO: each row of a batch, rows innermost
    # (after an evaluation, whose differences the solve reuses) or particles
    # innermost, has the bytes of the same row as a batch of one and as one
    # (d,) problem on floats, NaN rows included: up to two gaps down to
    # 1e-170 give weights up to 1e340, which overflow, and squares that
    # underflow to 0
    d, log_c, log_gaps, tiny, rhs, corner_zero = drawn
    m = len(log_gaps) // d
    for i, log_gap in tiny:
        log_gaps[i % len(log_gaps)] = log_gap
    c = np.zeros((d, d))
    c[np.triu_indices(d, 1)] = 10.0 ** np.array(log_c)
    if corner_zero and d > 2:
        c[0, -1] = 0.0
    c = c + c.T
    x = np.cumsum(10.0 ** np.array(log_gaps).reshape(d, m), axis=0)
    b = np.array(rhs)[:, None] * np.linspace(1.0, -2.0, m)
    k = _Coupling(c, d)
    k.kernel = c  # dense also where c couples only neighbours
    with np.errstate(all="ignore"):
        rows = np.ascontiguousarray(x)
        k.interaction(rows)
        batches = [_hessian_solve(k, rows, np.ascontiguousarray(b))]
        batches.append(_hessian_solve(k, np.asfortranarray(x), np.asfortranarray(b)))
        for i in range(m):
            one, alone = _hessian_solve(k, x[:, i : i + 1], b[:, i : i + 1]), _hessian_solve(k.fresh(), x[:, i], b[:, i])
            assert one.shape == (d, 1) and alone.shape == (d,)
            for batch in batches:
                assert batch[:, i].tobytes() == one.tobytes() == alone.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, LDL_UP_TO),
    st.sampled_from([1, 2, 3, 7, 100]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_ring_has_the_dense_bits(d, m, rows_innermost, seed):
    # a dense c at d <= LDL_UP_TO is evaluated on its ring: the band and, at
    # d = 3, the corner pair (0, 2) at both ends.  Its interaction, weights and
    # Hessian diagonals have the bits of the fresh dense (d, d, m) arrays, the
    # weights after an evaluation at the same x, which reuse its gaps, have the
    # bits of the weights alone, and a solve leaves no pair scratch and no gaps.
    # c ranges over 1e-8..1e4 and the positions of a row over scales 1e-6..1e3
    rng = np.random.default_rng(seed)
    c = np.zeros((d, d))
    c[np.triu_indices(d, 1)] = 10.0 ** rng.uniform(-8.0, 4.0, d * (d - 1) // 2)
    c = c + c.T
    x = np.sort(rng.normal(size=(d, m)), axis=0) * 10.0 ** rng.uniform(-6.0, 3.0, m)
    x = np.ascontiguousarray(x) if rows_innermost else np.asfortranarray(x)
    k = _Coupling(c, d)
    index, links = k.ring
    assert k.interaction(x).tobytes() == _interaction(c[..., None], x).tobytes()
    w, s = k.weights(x)
    assert k._gaps[0] is None
    dense = _weights(c[..., None], x)
    # link k joins particles index[k] and index[k + 1]; at d = 2 the end links carry -0.0
    expected = np.array([dense[i, j] if link else np.full(m, -0.0) for i, j, link in zip(index, index[1:], links)])
    assert w.tobytes() == expected.tobytes()
    assert s.tobytes() == (dense.sum(axis=1) + 1.0).tobytes()
    alone = _Coupling(c, d).weights(x)
    assert [v.tobytes() for v in alone] == [w.tobytes(), s.tobytes()]
    solve_batch(x.T + rng.normal(size=(m, d)), k)
    assert k._scratch.size == 0 and k._gaps[1] is None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(problems(spread_decades=(-3.0, 3.0), max_rows=1))
def test_methods_agree_within_their_residuals(problem):
    # F is 1-strongly convex on the convex chamber, so two ordered points are
    # at most |r(xi_a)|_2 + |r(xi_b)|_2 apart: an oracle that trusts no solver.
    # Every applicable method of METHODS that converges is checked against
    # every other, with the residuals taken exactly and the norms in floats
    (a,), c = problem
    d = len(a)
    p = ImplicitProblem(a, c)
    applicable = {
        "newton": True, "homotopy": True, "fixed_point_nn": is_tridiagonal(c), "alternating_d3": d == 3 and is_uniform(c)
    }
    assert applicable.keys() == METHODS.keys()
    found = []
    for name in (name for name, ok in applicable.items() if ok):
        try:
            xi = solve(p, SolverOptions(method=name)).xi
        except NonConvergenceError:
            continue
        found.append((xi, math.sqrt(sum(v * v for v in exact_residual(a, c, xi)))))
    assert found
    for (xa, ra), (xb, rb) in itertools.combinations(found, 2):
        distance = math.sqrt(sum((Fraction(u) - Fraction(v)) ** 2 for u, v in zip(xa, xb)))
        assert distance <= (ra + rb) * (1.0 + 1e-9)
