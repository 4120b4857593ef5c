"""Unit tests for the per-step implicit-system solvers."""

import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from noncolliding import (
    GapVector,
    ImplicitProblem,
    NonConvergenceError,
    SolverOptions,
    jacobian,
    residual,
    solve,
    solve_alternating_d3,
    solve_fixed_point_nn,
    solve_homotopy,
    solve_newton,
)
from noncolliding import implicit
from noncolliding.implicit import solve_batch
from noncolliding.model import is_tridiagonal, is_uniform


def uniform_c(d, value):
    c = np.full((d, d), float(value))
    np.fill_diagonal(c, 0.0)
    return c


def tridiag_c(values):
    d = len(values) + 1
    c = np.zeros((d, d))
    idx = np.arange(d - 1)
    c[idx, idx + 1] = values
    c[idx + 1, idx] = values
    return c


def dense_coupling(c):
    # the coupling of c with its dense kernel, also where c couples only neighbours
    coupling = implicit._Coupling(c, len(c))
    coupling.kernel = coupling.c
    return coupling


# the d of the Cholesky tests: the smallest, one past it (whose (d, d) blocks
# start at every alignment in a batch) and two larger
CHOLESKY_DS = [implicit.CHOLESKY_FROM, implicit.CHOLESKY_FROM + 1, 64, 128]
# the d of the tests of the solves that read one triangle of the Hessian:
# the fixed-order LDL^T up to LDL_UP_TO and Cholesky from CHOLESKY_FROM
SYMMETRIC_DS = list(range(2, implicit.LDL_UP_TO + 1)) + CHOLESKY_DS

ALL_METHODS_D2 = ["newton", "homotopy", "fixed_point_nn"]
ALL_METHODS_D3 = ["newton", "homotopy", "alternating_d3"]


def solve_batch_of_one(a, c):
    return solve_batch(np.asarray(a)[None], c)


class TestProblemValidation:
    # solve_batch checks its a and c where ImplicitProblem does, with the same text
    CONSTRUCTORS = (ImplicitProblem, solve_batch_of_one)

    def refused(self, a, c, message):
        for make in self.CONSTRUCTORS:
            with pytest.raises(ValueError, match=message):
                make(a, c)

    def test_rejects_scalar_a(self):
        with pytest.raises(ValueError):
            ImplicitProblem(np.zeros((2, 2)), uniform_c(2, 1.0))

    def test_rejects_single_particle(self):
        self.refused(np.array([0.0]), np.zeros((1, 1)), "need at least two particles")

    def test_rejects_asymmetric_c(self):
        c = uniform_c(3, 1.0)
        c[0, 1] = 2.0
        self.refused(np.zeros(3), c, "c must be symmetric")

    def test_rejects_negative_c(self):
        c = uniform_c(3, 1.0)
        c[0, 2] = c[2, 0] = -1.0
        self.refused(np.zeros(3), c, "c entries must be non-negative and finite")

    def test_rejects_zero_superdiagonal(self):
        self.refused(np.arange(3.0), tridiag_c([1.0, 0.0]), "c must have strictly positive first off-diagonal")

    def test_rejects_non_zero_diagonal(self):
        self.refused(np.zeros(3), uniform_c(3, 1.0) + np.eye(3), "c must have zero diagonal")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_a(self, bad):
        self.refused(np.array([0.0, bad, 1.0]), uniform_c(3, 1.0), "a must be finite")

    def test_structure_predicates(self):
        p = ImplicitProblem(np.zeros(3), tridiag_c([1.0, 2.0]))
        assert is_tridiagonal(p.c) and not is_uniform(p.c)
        q = ImplicitProblem(np.zeros(3), uniform_c(3, 1.0))
        assert is_uniform(q.c) and not is_tridiagonal(q.c)
        # d = 2 uniform coefficients are both
        r = ImplicitProblem(np.zeros(2), uniform_c(2, 1.0))
        assert is_uniform(r.c) and is_tridiagonal(r.c)


class TestResidualJacobian:
    def test_residual_zero_at_solution(self):
        p = ImplicitProblem(np.array([0.0, 0.0]), uniform_c(2, 1.0))
        xi = np.array([-np.sqrt(2) / 2, np.sqrt(2) / 2])
        assert np.max(np.abs(residual(p, xi))) < 1e-15

    def test_residual_requires_ordering(self):
        p = ImplicitProblem(np.array([0.0, 0.0]), uniform_c(2, 1.0))
        with pytest.raises(ValueError):
            residual(p, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("function", [residual, jacobian])
    @pytest.mark.parametrize(
        "xi, message",
        [
            ([0.0, np.nan, 2.0], "strictly increasing"),
            ([np.nan, 1.0, 2.0], "strictly increasing"),
            ([0.0, 1.0], r"shape \(3,\)"),
            ([[0.0, 1.0, 2.0]], r"shape \(3,\)"),
        ],
        ids=["nan-inside", "nan-first", "short", "two-dimensional"],
    )
    def test_refuses_nan_and_misshapen_xi(self, function, xi, message):
        p = ImplicitProblem(np.zeros(3), uniform_c(3, 1.0))
        with pytest.raises(ValueError, match=message):
            function(p, np.array(xi))

    @pytest.mark.parametrize("function", [residual, jacobian])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_refuses_infinite_xi(self, function, value, where):
        # (-inf, 1, 2) and (0, 1, inf) are increasing, and inf - inf on the
        # diagonal of the differences would give NaN
        p = ImplicitProblem(np.zeros(3), uniform_c(3, 1.0))
        xi = np.array([0.0, 1.0, 2.0])
        xi[where] = value
        with pytest.raises(ValueError, match="xi must be finite"):
            function(p, xi)

    def test_jacobian_closed_form_d2(self):
        # c = 1, gap = 2 => w = 1/4; M = [[1.25, -0.25], [-0.25, 1.25]]
        p = ImplicitProblem(np.array([0.0, 0.0]), uniform_c(2, 1.0))
        m = jacobian(p, np.array([-1.0, 1.0]))
        assert np.allclose(m, [[1.25, -0.25], [-0.25, 1.25]], atol=1e-15)

    def test_jacobian_spd_eigenvalues_at_least_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            a = rng.uniform(-3, 3, d)
            p = ImplicitProblem(a, uniform_c(d, rng.uniform(0.1, 5.0)))
            xi = solve_newton(p)
            eig = np.linalg.eigvalsh(jacobian(p, xi))
            assert np.all(eig >= 1.0 - 1e-12)


class TestGapVector:
    def test_positions_roundtrip(self):
        gv = GapVector(np.array([1.0, 2.0]), anchor=-1.5)
        assert np.allclose(gv.to_positions(), [-1.5, -0.5, 1.5])

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            GapVector(np.array([1.0, 0.0]), anchor=0.0)

    @pytest.mark.parametrize(
        "gaps, anchor", [([np.nan, 1.0], 0.0), ([1.0, 2.0], np.nan), ([1.0, 2.0], np.inf), ([1.0, 2.0], -np.inf)]
    )
    def test_rejects_nan_gap_and_non_finite_anchor(self, gaps, anchor):
        with pytest.raises(ValueError):
            GapVector(np.array(gaps), anchor=anchor)


class TestClosedForms:
    @pytest.mark.parametrize("method", ALL_METHODS_D2)
    def test_d2_symmetric(self, method):
        p = ImplicitProblem(np.array([0.0, 0.0]), uniform_c(2, 1.0))
        res = solve(p, SolverOptions(method=method))
        assert np.allclose(res.xi, [-np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-12)

    @pytest.mark.parametrize("method", ALL_METHODS_D2)
    def test_d2_shifted(self, method):
        p = ImplicitProblem(np.array([0.0, 3.0]), uniform_c(2, 2.0))
        res = solve(p, SolverOptions(method=method))
        assert np.allclose(res.xi, [-0.5, 3.5], atol=1e-12)

    @pytest.mark.parametrize("method", ALL_METHODS_D3)
    def test_d3_symmetric(self, method):
        # a = 0, uniform c = 1: xi = (-sqrt(1.5), 0, sqrt(1.5))
        p = ImplicitProblem(np.zeros(3), uniform_c(3, 1.0))
        res = solve(p, SolverOptions(method=method))
        want = np.array([-np.sqrt(1.5), 0.0, np.sqrt(1.5)])
        assert np.allclose(res.xi, want, atol=1e-10)

    def test_sum_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = int(rng.integers(2, 8))
            a = rng.uniform(-4, 4, d)
            p = ImplicitProblem(a, uniform_c(d, rng.uniform(0.01, 3.0)))
            xi = solve_newton(p)
            assert abs(xi.sum() - a.sum()) < 1e-9 * max(1.0, abs(a.sum()))


class TestNewton:
    def test_strict_ordering_and_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            a = rng.uniform(-5, 5, d)
            p = ImplicitProblem(a, uniform_c(d, rng.uniform(1e-4, 10.0)))
            xi = solve_newton(p)
            assert np.all(np.diff(xi) > 0)
            assert np.max(np.abs(residual(p, xi))) <= 1e-10

    def test_roundoff_limited_rows_converge(self):
        # d = 3, c = 1.45e-3, |a| up to 250: gaps near 1e-5 and Hessian
        # weights near 1e7 stall the residual near 1e-7, far above tol * |a|,
        # yet every row is within one rounding unit of the exact solution
        rng = np.random.default_rng(0)
        c = uniform_c(3, 1.45e-3)
        a = rng.uniform(-250.0, 250.0, (100, 3))
        batch = solve_batch(a, c)
        for row, xi_batch in zip(a, batch):
            p = ImplicitProblem(row, c)
            xi = solve_newton(p)
            assert solve(p).xi.tobytes() == xi.tobytes() == xi_batch.tobytes()
            assert np.all(np.diff(xi) > 0)
            # one Newton correction from the exact (rational) residual
            x, ar, cc = [Fraction(v) for v in xi], [Fraction(v) for v in row], Fraction(c[0, 1])
            exact = [x[i] - ar[i] - sum(cc / (x[i] - x[j]) for j in range(3) if j != i) for i in range(3)]
            correction = np.linalg.solve(jacobian(p, xi), np.array(exact, dtype=float))
            assert np.max(np.abs(correction)) <= np.finfo(float).eps * np.max(np.abs(row))

    def test_d2_within_four_units_of_closed_form(self):
        # offsets up to 1e8, c down to 1e-8: every pair whose exact gap spans
        # at least 4 rounding units eps * max(1, max|a|) solves, near the
        # closed-form gap g = (da + sqrt(da^2 + 8c)) / 2 taken in decimal
        rng = np.random.default_rng(12)
        scale = 10.0 ** rng.uniform(0.0, 8.0, 200)
        offsets = rng.uniform(-1.0, 1.0, (200, 2)) * scale[:, None]
        coefficients = 10.0 ** rng.uniform(-8.0, 0.0, 200)
        solved = 0
        for a, c in zip(offsets, coefficients):
            unit = np.finfo(float).eps * max(1.0, np.max(np.abs(a)))
            with localcontext() as ctx:
                ctx.prec = 50
                a1, a2, cc = Decimal(a[0]), Decimal(a[1]), Decimal(c)
                root = ((a2 - a1) ** 2 + 8 * cc).sqrt()
                gap = 4 * cc / (root - (a2 - a1)) if a2 < a1 else (a2 - a1 + root) / 2
                if gap < 4 * Decimal(unit):
                    continue
                exact = [(a1 + a2 - gap) / 2, (a1 + a2 + gap) / 2]
                xi = solve(ImplicitProblem(a, uniform_c(2, c))).xi
                assert max(abs(Decimal(v) - e) for v, e in zip(xi, exact)) <= 4 * Decimal(unit)
            solved += 1
        assert solved > 150

    def test_nonconvergence_raised_on_tiny_budget(self, monkeypatch):
        monkeypatch.setattr(implicit, "MAX_ITER", 1)
        p = ImplicitProblem(np.array([0.0, 1.0, 5.0]), uniform_c(3, 2.0))
        with pytest.raises(NonConvergenceError) as exc:
            solve_newton(p)
        assert exc.value.method == "newton"


class TestHomotopy:
    def test_agrees_with_newton(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            a = rng.uniform(-5, 5, d)
            p = ImplicitProblem(a, uniform_c(d, rng.uniform(1e-3, 5.0)))
            xn = solve_newton(p)
            xh = solve_homotopy(p)
            assert np.max(np.abs(xn - xh)) < 1e-8

    def test_handles_near_collision_offsets(self):
        # tightly clustered a with small c: gaps are tiny but ordering holds
        a = np.array([0.0, 1e-6, 2e-6, 3e-6])
        p = ImplicitProblem(a, uniform_c(4, 1e-4))
        xi = solve_homotopy(p)
        assert np.all(np.diff(xi) > 0)
        assert np.max(np.abs(residual(p, xi))) <= 1e-10

    @staticmethod
    def _counted_homotopy(monkeypatch, a, c):
        """16-step continuation with every velocity solve recorded.

        Returns (iterations, the points at which the velocity that the solve
        builds solves, Newton polish solves).  The velocity solves at the
        strictly ordered points it is given and is NaN at any other; a polish
        solve is a Hessian solve whose right-hand side is not its g(J).
        """
        points, velocity_rhs, rhs = [], [], []
        build, real = implicit._velocity, implicit._hessian_solve

        def counting_build(coupling, g):
            velocity = build(coupling, g)
            velocity_rhs.append(g.tobytes())

            def counted(x):
                if (x[1:] > x[:-1]).all():
                    points.append(x.tobytes())
                return velocity(x)

            return counted

        def counting_solve(coupling, x, b):
            rhs.append(b.tobytes())
            return real(coupling, x, b)

        monkeypatch.setattr(implicit, "_velocity", counting_build)
        monkeypatch.setattr(implicit, "_hessian_solve", counting_solve)
        opts = SolverOptions(method="homotopy", homotopy_steps=16)
        _, iterations = implicit._homotopy(ImplicitProblem(np.array(a), c), opts)
        assert len(velocity_rhs) == 1
        return iterations, points, sum(b != velocity_rhs[0] for b in rhs)

    def test_one_solve_per_stage_without_rejection(self, monkeypatch):
        # k1 once at J, then k2, k3, k4 and the bound's velocity per step,
        # which is the next step's k1; plus one solve per polish iteration
        iterations, velocity, polish = self._counted_homotopy(monkeypatch, [-3.0, 0.0, 3.0], uniform_c(3, 1.0))
        assert len(velocity) == 4 * 16 + 1
        assert iterations == 16 + polish

    def test_rejected_step_reuses_k1(self, monkeypatch):
        # a rejected step retries from the same x: no velocity is evaluated
        # twice at one point, for the retry's k1 or an accepted step's
        iterations, velocity, polish = self._counted_homotopy(monkeypatch, [5.0, -5.0, 0.0], uniform_c(3, 1e-2))
        assert iterations - polish > 16
        assert len(set(velocity)) == len(velocity)

    @pytest.mark.parametrize(
        "d, kind",
        [(5, "band"), (2, "dense"), (3, "dense"), (4, "dense"), (8, "dense"), (implicit.CHOLESKY_FROM, "dense")],
    )
    def test_velocity_has_the_bits_of_the_hessian_solve(self, d, kind):
        # at ordered points, the velocity a solve builds gives the bits of
        # `_hessian_solve` at each kernel's solver; at a tie, an inversion or a
        # NaN entry it gives NaN.  A band kernel and d = CHOLESKY_FROM call
        # `_hessian_solve` itself, so there only the NaN cases test anything:
        # that its order check runs before it
        rng = np.random.default_rng(40 + d)
        if kind == "band":
            c = tridiag_c(rng.uniform(0.05, 3.0, d - 1))
        else:
            c = rng.uniform(0.0, 3.0, (d, d)) ** 3
            c = c + c.T
            np.fill_diagonal(c, 0.0)
        coupling = implicit._Coupling(c, d)
        assert coupling.kernel.ndim == (1 if kind == "band" else 2)
        g = rng.normal(size=d)
        velocity = implicit._velocity(coupling.fresh(), g)
        for gaps in (rng.uniform(0.1, 1.5, d - 1), rng.uniform(1e-4, 1e-2, d - 1)):
            x = rng.normal() + np.concatenate(([0.0], np.cumsum(gaps)))
            expected = implicit._hessian_solve(coupling.fresh(), x, g)
            assert np.isfinite(expected).all() and velocity(x).tobytes() == expected.tobytes()
        tie, inversion, nan = (x.copy() for _ in range(3))
        tie[d // 2] = tie[d // 2 - 1]
        inversion[[0, 1]] = inversion[[1, 0]]
        nan[-1] = np.nan
        for point in (tie, inversion, nan):
            v = velocity(point)
            assert v.shape == (d,) and np.isnan(v).all()


class TestFixedPointNN:
    def test_requires_tridiagonal(self):
        p = ImplicitProblem(np.zeros(3), uniform_c(3, 1.0))
        with pytest.raises(ValueError):
            solve_fixed_point_nn(p)

    def test_matches_newton_and_monotone(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = int(rng.integers(2, 8))
            a = np.sort(rng.uniform(-4, 4, d))
            c = tridiag_c(rng.uniform(0.05, 3.0, d - 1))
            p = ImplicitProblem(a, c)
            gv = solve_fixed_point_nn(p)
            xi = gv.to_positions()
            assert np.all(gv.x > 0)
            assert np.max(np.abs(xi - solve_newton(p))) < 1e-8


class TestAlternatingD3:
    def test_requires_d3_uniform(self):
        with pytest.raises(ValueError):
            solve_alternating_d3(ImplicitProblem(np.zeros(4), uniform_c(4, 1.0)))
        with pytest.raises(ValueError):
            solve_alternating_d3(ImplicitProblem(np.zeros(3), tridiag_c([1.0, 2.0])))

    def test_matches_newton(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            a = np.sort(rng.uniform(-3, 3, 3))
            p = ImplicitProblem(a, uniform_c(3, rng.uniform(0.05, 5.0)))
            gv = solve_alternating_d3(p)
            assert np.max(np.abs(gv.to_positions() - solve_newton(p))) < 1e-8

    def test_normalized_origin_limit(self):
        # a = 0, c = 1: both gaps equal sqrt(1.5) - (-sqrt(1.5))... the gap is sqrt(1.5)
        p = ImplicitProblem(np.zeros(3), uniform_c(3, 1.0))
        gv = solve_alternating_d3(p)
        assert np.allclose(gv.x, np.sqrt(1.5), atol=1e-8)


class TestDispatch:
    def test_auto_uses_newton(self):
        p = ImplicitProblem(np.array([0.0, 0.0]), uniform_c(2, 1.0))
        res = solve(p)
        assert res.method == "newton"
        assert res.iterations >= 0
        assert res.residual_norm <= 1e-10

    def test_explicit_method_recorded(self):
        p = ImplicitProblem(np.zeros(3), uniform_c(3, 1.0))
        for method in ("homotopy", "alternating_d3"):
            res = solve(p, SolverOptions(method=method))
            assert res.method == method

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(method="bisection")

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            SolverOptions(tol=tol)

    @pytest.mark.parametrize("steps", [-1, 0, 2.5, True, np.True_, "16", None, np.int64(0)])
    def test_homotopy_steps_must_be_a_positive_integer(self, steps):
        # a negative count walked t backwards forever and 0 divided by zero
        with pytest.raises(ValueError, match="homotopy_steps must be an integer >= 1"):
            SolverOptions(method="homotopy", homotopy_steps=steps)

    @pytest.mark.parametrize("steps", [1, 16, np.int64(16), np.int32(16)])
    def test_homotopy_steps_accepts_any_integer_type(self, steps):
        assert SolverOptions(method="homotopy", homotopy_steps=steps).homotopy_steps == steps

    def test_alternating_not_offered_for_d4(self):
        p = ImplicitProblem(np.zeros(4), uniform_c(4, 1.0))
        with pytest.raises(ValueError):
            solve(p, SolverOptions(method="alternating_d3"))


class TestBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(23)
        d = 5
        c = uniform_c(d, 0.7)
        a = rng.uniform(-5, 5, (64, d))
        batch = solve_batch(a, c)
        for i in range(a.shape[0]):
            xi = solve_newton(ImplicitProblem(a[i], c))
            assert np.max(np.abs(batch[i] - xi)) < 1e-9

    def test_all_rows_ordered(self):
        rng = np.random.default_rng(29)
        a = np.sort(rng.uniform(-1e-3, 1e-3, (200, 4)), axis=1)
        batch = solve_batch(a, uniform_c(4, 1e-5))
        assert np.all(np.diff(batch, axis=1) > 0)

    @pytest.mark.parametrize("d", [16, implicit.CHOLESKY_FROM, 64])
    @pytest.mark.parametrize("kind", ["uniform", "tridiagonal"])
    def test_rows_bit_identical_alone_at_large_d(self, d, kind):
        # reductions over d >= 8 terms are pairwise; a row must still get the
        # same bits alone as inside a batch
        rng = np.random.default_rng(d)
        c = uniform_c(d, 0.05) if kind == "uniform" else tridiag_c(rng.uniform(0.05, 0.5, d - 1))
        a = np.linspace(-2.0 * np.sqrt(d), 2.0 * np.sqrt(d), d) + rng.normal(size=(5, d))
        batch = solve_batch(a, c)
        for row, xi_batch in zip(a, batch):
            assert solve(ImplicitProblem(row, c)).xi.tobytes() == xi_batch.tobytes()

    @pytest.mark.parametrize("kind", ["uniform", "tridiagonal"])
    @pytest.mark.parametrize("d", [3, 12], ids=["rows_innermost", "particles_innermost"])
    def test_unordered_start_fails_at_step_0(self, d, kind):
        # the core iterates from the whole batch; a row whose start is not
        # ordered leaves at once, and the other rows get the bits they get
        # alone.  The reversed starts are shrunk about their mean, so that one
        # Newton step would order them: a core that let them iterate fails here
        rng = np.random.default_rng(d)
        c = uniform_c(d, 0.3) if kind == "uniform" else tridiag_c(rng.uniform(0.1, 1.0, d - 1))
        a = np.linspace(-4.0 * d, 4.0 * d, d) + rng.normal(size=(40, d))
        a = np.ascontiguousarray(a.T) if d < 8 else np.ascontiguousarray(a).T
        start = implicit._initial_guess(a, c)
        reversed_ = np.zeros(40, dtype=bool)
        reversed_[[0, 7, 8, 39]] = True
        centre = start[:, reversed_].mean(axis=0)
        start[:, reversed_] = centre - 1e-3 * (start[:, reversed_] - centre)
        k = implicit._Coupling(c, d)
        xi, iterations, rnorm, ok = implicit._newton(a, k, start, 1e-12)
        assert xi[:, reversed_].tobytes() == start[:, reversed_].tobytes()
        assert not iterations[reversed_].any() and np.all(rnorm[reversed_] == np.inf) and not ok[reversed_].any()
        for i in np.flatnonzero(~reversed_):
            alone = implicit._newton(a[:, [i]], k, start[:, [i]], 1e-12)
            assert [v.tobytes() for v in alone] == [v[..., [i]].tobytes() for v in (xi, iterations, rnorm, ok)]

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_initial_guess_has_the_same_bits_in_either_layout(self, d):
        # rows innermost the positions are d - 1 row additions, particles
        # innermost a cumsum: the same sequential sum, so the same bits
        rng = np.random.default_rng(d)
        c = uniform_c(d, 0.3) if d < 7 else tridiag_c(rng.uniform(0.1, 1.0, d - 1))
        a = np.linspace(-4.0 * d, 4.0 * d, d) + rng.normal(size=(300, d))
        rows = implicit._initial_guess(np.ascontiguousarray(a.T), c)
        particles = implicit._initial_guess(np.ascontiguousarray(a).T, c)
        assert rows.strides[-1] == rows.itemsize and particles.strides[0] == particles.itemsize
        assert rows.tobytes() == particles.tobytes()

    def test_unrepresentable_row_names_its_cause(self):
        # the exact gap, 2e-12, is below one ulp of |xi| ~ 5e7; the batch
        # names the cause that `solve` names, not the continuation's symptom
        with pytest.raises(NonConvergenceError, match="the solution's gap is below the spacing of doubles"):
            solve_batch([[0.0, -1e8]], uniform_c(2, 1e-4))

    @pytest.mark.parametrize(
        "d, kind", [(5, "tridiagonal"), (5, "uniform"), (implicit.CHOLESKY_FROM, "uniform")], ids=["band", "lu", "cholesky"]
    )
    def test_empty_batch(self, d, kind):
        # no rows give shape (0, d) for every kernel, also as a coupling's
        # first solve, and the same coupling then solves rows with the bits
        # of a fresh one
        c = uniform_c(d, 1.0) if kind == "uniform" else tridiag_c(np.ones(d - 1))
        coupling = implicit._Coupling(c, d)
        assert solve_batch(np.empty((0, d)), coupling).shape == (0, d)
        a = np.linspace(-d, d, d) + np.random.default_rng(d).normal(size=(3, d))
        assert solve_batch(a, coupling).tobytes() == solve_batch(a, c).tobytes()
        assert solve_batch(np.empty((0, d)), coupling).shape == (0, d)


class TestScratch:
    """The pair arrays of a dense c, which live in the scratch of the run's `_Coupling`."""

    @staticmethod
    def dyson(d, m, seed):
        # uniform c = gamma * h for gamma = 1, h = 1/64 and rows spread like
        # the semicircle, as one step of Dyson Brownian motion
        rng = np.random.default_rng(seed)
        return uniform_c(d, 1.0 / 64), np.linspace(-2.0 * np.sqrt(d), 2.0 * np.sqrt(d), d) + rng.normal(size=(m, d))

    def test_second_solve_allocates_no_pair_array(self):
        d, m = 64, 16
        c, a = self.dyson(d, m, 1)
        k = implicit._Coupling(c, d)
        solve_batch(a, k)
        a = self.dyson(d, m, 2)[1]
        tracemalloc.start()
        try:
            solve_batch(a, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * d * m * 8

    def test_results_never_share_the_scratch(self, monkeypatch):
        # a solve of one problem works in an empty copy of the problem's
        # coupling, which the problem does not keep
        c, a = self.dyson(16, 5, 3)
        k = implicit._Coupling(c, 16)
        xi = solve_batch(a, k)
        assert not np.shares_memory(xi, k._scratch)
        copies = []
        fresh = implicit._Coupling.fresh
        monkeypatch.setattr(implicit._Coupling, "fresh", lambda self: copies.append(fresh(self)) or copies[-1])
        p = ImplicitProblem(a[0], c)
        x = solve(p).xi
        results = (x, jacobian(p, x), solve_homotopy(p))
        assert len(copies) == 3 and p.coupling._scratch.size == 0
        for result in results:
            assert not any(np.shares_memory(result, copy._scratch) for copy in copies)

    def test_first_result_survives_a_second_call(self):
        c, a = self.dyson(16, 5, 4)
        k = implicit._Coupling(c, 16)
        first = solve_batch(a, k)
        kept = first.copy()
        solve_batch(self.dyson(16, 40, 5)[1], k)
        assert first.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("d", [5, 16], ids=["rows-then-particles-innermost", "particles-innermost"])
    def test_smaller_batch_after_a_larger_one_has_fresh_bits(self, d):
        # 40 rows at d = 5 run rows innermost and 3 rows particles innermost,
        # in the prefix of the scratch that the 40 rows left
        rng = np.random.default_rng(d)
        c = rng.uniform(0.05, 1.0, (d, d))
        c = c + c.T
        np.fill_diagonal(c, 0.0)
        a = np.linspace(-2.0 * np.sqrt(d), 2.0 * np.sqrt(d), d) + rng.normal(size=(43, d))
        k = implicit._Coupling(c, d)
        solve_batch(a[:40], k)
        assert solve_batch(a[40:], k).tobytes() == solve_batch(a[40:], c).tobytes()

    @pytest.mark.parametrize("layout", ["rows-innermost", "particles-innermost"])
    def test_singular_row_in_a_grown_scratch_gives_nan_and_keeps_neighbours(self, layout, monkeypatch):
        TestDenseSolve.check_singular_rows(layout, monkeypatch, grown=True)

    @pytest.mark.parametrize("layout", ["rows-innermost", "particles-innermost"])
    def test_hessian_reuses_only_the_differences_of_its_x(self, layout):
        # the Hessian right after an evaluation at the same x, after one at
        # another x, and in a fresh coupling are the same bits
        c, a = self.dyson(6, 8, 6)
        x, y = a.T + 0.0, a.T[::-1] * -1.0
        if layout == "rows-innermost":
            x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
        else:
            x, y = np.asfortranarray(x), np.asfortranarray(y)
        k = implicit._Coupling(c, 6)
        k.interaction(x)
        reused = k.hessian(x).copy()
        k.interaction(y)
        assert k.hessian(x).tobytes() == reused.tobytes()
        assert implicit._Coupling(c, 6).hessian(x).tobytes() == reused.tobytes()
        assert reused.tobytes() == TestDenseSolve.hessian(c, x).tobytes()


class TestLayout:
    """Particles on axis 0 and rows last, with either axis innermost in memory."""

    @staticmethod
    def _recorded_layouts(monkeypatch):
        # (rows innermost, particles innermost) in memory of the iterate, the
        # right-hand side, the result and, for a dense c, the two scratch pair
        # arrays of each Hessian solve; a single row has both
        seen = []
        real = implicit._hessian_solve

        def layout(v):
            return (v.shape[-1] == 1 or v.strides[-1] == v.itemsize, v.strides[-2] == v.itemsize)

        def recording(coupling, x, b):
            delta = real(coupling, x, b)
            if b.ndim == 2:
                arrays = (x, b, delta)
                if coupling.kernel.ndim == 2:
                    (pairs, _), quotient = coupling._pair_scratch(x)
                    arrays += (pairs, quotient)
                seen.append(tuple(map(all, zip(*(layout(v) for v in arrays)))))
            return delta

        monkeypatch.setattr(implicit, "_hessian_solve", recording)
        return seen

    @pytest.mark.parametrize("c", [uniform_c(3, 0.5), tridiag_c([0.5, 1.0, 0.2, 0.7])], ids=["uniform", "tridiagonal"])
    def test_more_rows_than_particles_below_d8_puts_rows_innermost(self, monkeypatch, c):
        seen = self._recorded_layouts(monkeypatch)
        d = len(c)
        solve_batch(np.arange(d) + np.random.default_rng(3).uniform(-3.0, 3.0, (1000, d)), c)
        assert seen and all(rows for rows, _ in seen)

    @pytest.mark.parametrize("m, d", [(16, 128), (40, 16)])
    def test_particles_stay_innermost_for_fewer_rows_or_d8_and_above(self, monkeypatch, m, d):
        rng = np.random.default_rng(5)
        a = np.linspace(-2.0 * np.sqrt(d), 2.0 * np.sqrt(d), d) + rng.normal(size=(m, d))
        seen = self._recorded_layouts(monkeypatch)
        solve_batch(a, uniform_c(d, 0.05))
        assert seen and all(particles for _, particles in seen)

    def test_one_problem_has_its_particles_innermost(self, monkeypatch):
        seen = self._recorded_layouts(monkeypatch)
        solve(ImplicitProblem(np.arange(5.0), uniform_c(5, 0.5)))
        assert seen and all(particles for _, particles in seen)

    @pytest.mark.parametrize("kind", ["uniform", "tridiagonal"])
    def test_rows_get_the_same_bits_in_either_layout(self, kind):
        # 16 rows at d = 7 in batches of 4 (particles innermost), in one of
        # 40 (rows innermost) and alone
        d = 7
        rng = np.random.default_rng(41)
        c = uniform_c(d, 0.05) if kind == "uniform" else tridiag_c(rng.uniform(0.05, 0.5, d - 1))
        a = np.linspace(-4.0, 4.0, d) + rng.normal(size=(40, d))
        small = np.concatenate([solve_batch(a[i : i + 4], c) for i in range(0, 16, 4)])
        assert solve_batch(a, c)[:16].tobytes() == small.tobytes()
        alone = np.array([solve(ImplicitProblem(row, c)).xi for row in a[:16]])
        assert alone.tobytes() == small.tobytes()


class TestDenseSolve:
    """The dense Hessian solves: the fixed-order LDL^T up to LDL_UP_TO, NumPy's
    private LAPACK gufunc (LU) below CHOLESKY_FROM and `dposv` from it."""

    @staticmethod
    def system(rng, d, m):
        # a dense symmetric non-negative c and ordered rows x (d, m), rows innermost
        c = rng.uniform(0.0, 3.0, (d, d)) ** 3
        c = c + c.T
        np.fill_diagonal(c, 0.0)
        return implicit._Coupling(c, d), np.cumsum(rng.uniform(0.1, 1.5, (d, m)), axis=0)

    @staticmethod
    def hessian(c, x):
        # I + diag(sum_j w_ij) - w for w = c / (x_i - x_j)^2, with the
        # pair arrays of a fresh x[:, None] - x[None, :]
        diff = x[:, None] - x[None, :]
        diff[np.arange(len(x)), np.arange(len(x))] = np.inf
        w = c.reshape(c.shape + (1,) * (x.ndim - 1)) / diff**2
        h = -w
        h[np.arange(len(x)), np.arange(len(x))] = 1.0 + w.sum(axis=1)
        return h

    @staticmethod
    def particles_innermost(x, b):
        return np.asfortranarray(x), np.asfortranarray(b)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_numpy_solve_bit_for_bit(self, d):
        # LU has the bits of np.linalg.solve; the LDL^T up to LDL_UP_TO agrees
        # with it to 1e-13 of the largest entry, as Cholesky does
        def check(delta, expected):
            if d > implicit.LDL_UP_TO:
                assert delta.tobytes() == expected.tobytes()
            else:
                assert np.all(np.abs(delta - expected).max(axis=0) <= 1e-13 * np.abs(expected).max(axis=0))

        rng = np.random.default_rng(100 + d)
        k, x = self.system(rng, d, 6)
        b = rng.normal(size=(d, 6))
        for i in range(6):
            check(implicit._hessian_solve(k, x[:, i], b[:, i]), np.linalg.solve(self.hessian(k.c, x[:, i]), b[:, i]))
        # each layout against its own Hessians: at d = 8 their row sums round differently
        for x_, b_ in ((x, b), self.particles_innermost(x, b)):
            stacked = np.linalg.solve(self.hessian(k.c, x_).transpose(2, 0, 1), b_.T[:, :, None])[:, :, 0].T
            delta = implicit._hessian_solve(k, x_, b_)
            check(delta, stacked)
            assert delta.strides == b_.strides

    @pytest.mark.parametrize("shape", ["one", "one-row", "rows-innermost", "particles-innermost", "fewer-rows"])
    @pytest.mark.parametrize("scratch", [False, True])
    def test_pairs_are_laid_out_as_the_differences(self, shape, scratch):
        # the sums over particles follow the memory order of the pair arrays,
        # which must be NumPy's for x[:, None] - x[None, :], in a coupling's
        # scratch (grown by a larger batch first) as in fresh arrays
        d, m = 4, {"one-row": 1, "fewer-rows": 3}.get(shape, 5)
        x = np.random.default_rng(3).normal(size=(d, m))
        if shape == "one":
            x = x[:, 0]
        elif shape == "particles-innermost":
            x = np.asfortranarray(x)
        if scratch:
            k = implicit._Coupling(uniform_c(d, 1.0), d)
            k._pair_scratch(np.zeros((d, 40)))
            (pairs, diagonal), quotient = k._pair_scratch(x)
            assert np.shares_memory(pairs, k._scratch) and np.shares_memory(quotient, k._scratch)
            assert not np.shares_memory(pairs, quotient)
        else:
            (pairs, diagonal), quotient = implicit._pairs(x)
        fresh = x[:, None] - x[None, :]
        for v in (pairs, quotient):
            # the stride of an axis of length 1 is never used
            assert [s for s, n in zip(v.strides, v.shape) if n > 1] == [
                s for s, n in zip(fresh.strides, fresh.shape) if n > 1
            ]
        pairs[...] = 0.0
        diagonal[...] = 1.0
        assert np.array_equal(pairs, np.eye(d).reshape((d, d) + (1,) * (x.ndim - 1)) + np.zeros_like(pairs))

    @pytest.mark.parametrize("shape", ["one", "one-row", "rows-innermost", "particles-innermost"])
    def test_hessian_and_differences_fill_every_diagonal(self, shape):
        # one problem's (d, d) or (d, d, 1) arrays and a batch's (d, d, m), against a loop
        d, m = 4, (1 if shape == "one-row" else 5)
        rng = np.random.default_rng(3)
        k, x = self.system(rng, d, m)
        w = rng.uniform(0.0, 3.0, (d, d, m))
        if shape == "one":
            w, x = np.ascontiguousarray(w[..., 0]), x[:, 0]
        elif shape == "particles-innermost":
            x = np.asfortranarray(x)
        h, diff = implicit._hessian(w, implicit._pairs(x)[0]), implicit._differences(x, k._pair_scratch(x)[0])
        expected_h, expected_diff = -w, x[:, None] - x[None, :]
        for i in range(d):
            expected_h[i, i] = 1.0 + w[i].sum(axis=0)
            expected_diff[i, i] = np.inf
        assert h.tobytes() == expected_h.tobytes()
        assert diff.tobytes() == expected_diff.tobytes()

    @pytest.mark.parametrize("layout", ["rows-innermost", "particles-innermost"])
    def test_singular_hessian_gives_nan_and_keeps_neighbours(self, layout, monkeypatch):
        self.check_singular_rows(layout, monkeypatch, grown=False)

    @classmethod
    def check_singular_rows(cls, layout, monkeypatch, grown):
        # c_ij = (i - j)^2 and rows 1 and 3 at 2^-33 (0, 1, 2, 3) give uniform
        # weights 2^66, which lose the identity: each row of the Hessian sums
        # to 0 in floating point and elimination meets an exact zero pivot.
        # The batch is one LU call, which gives those rows NaN and the others
        # their bits.  grown: the coupling's scratch was grown by a 40-row
        # solve first
        d = 4
        rng = np.random.default_rng(8)
        c = np.subtract.outer(np.arange(d), np.arange(d)) ** 2.0
        k = implicit._Coupling(c, d)
        if grown:
            solve_batch(np.arange(d) + rng.normal(size=(40, d)), k)
        x = np.cumsum(rng.uniform(0.5, 1.5, (d, 5)), axis=0)
        x[:, [1, 3]] = 2.0**-33 * np.arange(d)[:, None]
        b = rng.normal(size=(d, 5))
        if layout == "particles-innermost":
            x, b = cls.particles_innermost(x, b)
        h = cls.hessian(c, x)
        assert np.all(h[..., [1, 3]] == 2.0**66 * (d * np.eye(d) - 1.0)[..., None])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(h[..., 1], b[:, 1])
        calls = []
        real = implicit._lu_solve
        monkeypatch.setattr(implicit, "_lu_solve", lambda h, b: calls.append(b.shape) or real(h, b))
        with np.errstate(invalid="ignore"):
            assert np.isnan(implicit._hessian_solve(k, x[:, 1], b[:, 1])).all()
            calls.clear()
            delta = implicit._hessian_solve(k, x, b)
        assert calls == [(d, 5)] and delta.strides == b.strides
        assert np.isnan(delta).any(axis=0).tolist() == [False, True, False, True, False]
        assert np.isnan(delta[:, [1, 3]]).all()
        for i in (0, 2, 4):
            assert delta[:, i].tobytes() == np.linalg.solve(h[..., i], b[:, i]).tobytes()

    @classmethod
    def cholesky_system(cls, d, m=5):
        # a dense system at a d of SYMMETRIC_DS, particles innermost as the core lays it out
        rng = np.random.default_rng(200 + d)
        k, x = cls.system(rng, d, m)
        return (k, *cls.particles_innermost(x, rng.normal(size=(d, m))))

    @pytest.mark.parametrize("d", SYMMETRIC_DS)
    def test_cholesky_rows_get_the_same_bits_alone(self, d):
        # in a batch, as a batch of one and as one (d,) problem in a fresh coupling
        k, x, b = self.cholesky_system(d)
        given = b.copy()
        delta = implicit._hessian_solve(k, x, b)
        assert b.tobytes() == given.tobytes() and delta.strides == b.strides
        for i in range(5):
            alone = implicit._hessian_solve(k, x[:, i : i + 1], b[:, i : i + 1])
            one = implicit._hessian_solve(k.fresh(), x[:, i], b[:, i])
            assert alone.tobytes() == delta[:, i : i + 1].tobytes() == one.tobytes()

    @pytest.mark.parametrize("d", SYMMETRIC_DS)
    @pytest.mark.parametrize("layout", ["rows-innermost", "particles-innermost"])
    def test_cholesky_matches_numpy_solve(self, d, layout):
        # rows innermost, each (d, d) block is strided and `dposv` copies it
        k, x, b = self.cholesky_system(d)
        if layout == "rows-innermost":
            x, b = np.ascontiguousarray(x), np.ascontiguousarray(b)
        expected = np.linalg.solve(self.hessian(k.c, x).transpose(2, 0, 1), b.T[:, :, None])[:, :, 0].T
        delta = implicit._hessian_solve(k, x, b)
        assert np.all(np.abs(delta - expected).max(axis=0) <= 1e-13 * np.abs(expected).max(axis=0))
        assert delta.strides == b.strides

    @pytest.mark.parametrize("d", SYMMETRIC_DS)
    @pytest.mark.parametrize(
        "bad", ["collapsed-pair", "inf-weight", "nan-weight", "inf-rhs", "nan-rhs"]
    )
    def test_cholesky_bad_row_gives_nan_and_keeps_neighbours(self, d, bad):
        # rows 1 and 3 are bad; the others keep the bits they get alone.
        # collapsed-pair: with c_ij = (i - j)^2, particles 0 and 1 at 2^-33
        # apart and the others at 2, 3, ..., the weight 2^66 between them
        # swallows the identity and every other weight of their rows, so the
        # second pivot is exactly 2^66 - (2^66 / 2^33)^2 = 0.  (The uniform
        # weights 2^66 of `check_singular_rows` leave LU a finite, meaningless
        # solution at these d, and Cholesky too at 48, 49 and 128.)
        # inf-weight: a gap whose square is 0, which leaves `dposv` a finite
        # solution, and which makes Python floats raise ZeroDivisionError.
        # The weight and right-hand side changed are those of particle 3 and
        # 2 where d > 3, else of the last particle and the one before it
        k, x, b = self.cholesky_system(d)
        rows, j = [1, 3], min(3, d - 1)
        if bad == "collapsed-pair":
            k = implicit._Coupling(np.subtract.outer(np.arange(d), np.arange(d)) ** 2.0, d)
            x[:, rows] = np.r_[0.0, 2.0**-33, 2.0:d][:, None]
        elif bad.endswith("weight"):
            x[j, rows] = x[j - 1, rows] + 1e-200 if bad == "inf-weight" else np.nan
        else:
            b[j - 1, rows] = np.inf if bad == "inf-rhs" else np.nan
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = implicit._hessian_solve(k, x, b)
        assert np.isnan(delta[:, rows]).all()
        for i in (0, 2, 4):
            alone = implicit._hessian_solve(k, x[:, i : i + 1], b[:, i : i + 1])
            assert np.isfinite(alone).all() and alone.tobytes() == delta[:, i : i + 1].tobytes()
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.isnan(implicit._hessian_solve(k.fresh(), x[:, 1], b[:, 1])).all()

    @pytest.mark.parametrize("d", [3, implicit.CHOLESKY_FROM - 1, implicit.CHOLESKY_FROM, 64])
    @pytest.mark.parametrize("kind", ["uniform", "tridiagonal"])
    def test_each_hessian_goes_to_its_solver(self, d, kind, monkeypatch):
        # uniform c: LDL^T up to LDL_UP_TO, LU below CHOLESKY_FROM, `dposv`
        # from it; neighbour c: `dgtsv`
        calls = []
        for name in ("_ldl_solve", "_lu_solve", "dposv", "dgtsv"):
            real = getattr(implicit, name)
            monkeypatch.setattr(implicit, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
        c = uniform_c(d, 1.0 / 64) if kind == "uniform" else tridiag_c(np.full(d - 1, 1.0 / 64))
        a = np.linspace(-2.0 * np.sqrt(d), 2.0 * np.sqrt(d), d) + np.random.default_rng(d).normal(size=(4, d))
        solve_batch(a, c)
        solve_homotopy(ImplicitProblem(a[0], c))
        expected = (
            "dgtsv" if kind == "tridiagonal"
            else "_ldl_solve" if d <= implicit.LDL_UP_TO
            else "_lu_solve" if d < implicit.CHOLESKY_FROM
            else "dposv"
        )
        assert calls and set(calls) == {expected}


class TestNeighbourKernel:
    """The band path of the Newton core, for c that couples only neighbours."""

    @staticmethod
    def system(rng, d, m):
        # well-spread ordered rows, so the Hessians are well conditioned;
        # particles on axis 0, rows on axis 1
        c = tridiag_c(rng.uniform(0.05, 2.0, d - 1))
        x = np.cumsum(rng.uniform(0.5, 1.5, (m, d)), axis=1).T
        return c, x

    def test_kernel_chooses_band_only_for_neighbours_at_d3_and_above(self):
        c = tridiag_c([1.0, 2.0, 3.0])
        assert np.array_equal(implicit._kernel(c), [1.0, 2.0, 3.0])
        dense = [uniform_c(2, 1.0), tridiag_c([1.0]), uniform_c(3, 1.0), uniform_c(64, 0.5)]
        far = tridiag_c([1.0, 2.0, 3.0])
        far[0, 2] = far[2, 0] = 0.5  # zero corner, non-zero second off-diagonal
        for c in dense + [far]:
            assert implicit._kernel(c) is c

    @pytest.mark.parametrize("d", [3, 8, 64, 128])
    def test_band_solve_matches_dense(self, d):
        rng = np.random.default_rng(d)
        c, x = self.system(rng, d, 5)
        b = rng.normal(size=(5, d)).T
        band = implicit._hessian_solve(implicit._Coupling(c, d), x, b)
        dense = implicit._hessian_solve(dense_coupling(c), x, b)
        assert np.max(np.abs(band - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("where", ["weight", "rhs"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_row_does_not_reach_its_neighbours(self, where, value):
        # rows 1 and 3 are bad: a weight made inf by a gap whose square is 0,
        # or NaN by a NaN position, or such a right-hand side; the others keep
        # the bits they get alone
        rng = np.random.default_rng(5)
        c, x = self.system(rng, 6, 5)
        k = implicit._Coupling(c, 6)
        b = rng.normal(size=(5, 6)).T
        if where == "weight":
            x[3, [1, 3]] = x[2, [1, 3]] + 1e-200 if value == np.inf else value
        else:
            b[2, [1, 3]] = value
        with np.errstate(divide="ignore"):
            delta = implicit._hessian_solve(k, x, b)
        assert np.isnan(delta[:, [1, 3]]).all()
        for i in (0, 2, 4):
            alone = implicit._hessian_solve(k, x[:, i : i + 1], b[:, i : i + 1])
            assert np.isfinite(alone).all() and alone.tobytes() == delta[:, i : i + 1].tobytes()

    def test_overflowing_row_does_not_reach_its_neighbours(self):
        # finite weights whose elimination overflows (row 1: about 1e300 and
        # 1e-300): back substitution would multiply the row's inf by the zero
        # coupling of the row before it
        k = implicit._Coupling(tridiag_c([1.0, 1.0]), 3)
        x = np.array([[0.0, 1.0, 2.0], [0.0, 1e-150, 1e150], [0.0, 0.5, 2.5]]).T
        b = np.ones((3, 3))
        delta = implicit._hessian_solve(k, x, b)
        assert np.isnan(delta[:, 1]).all()
        for i in (0, 2):
            assert implicit._hessian_solve(k, x[:, i : i + 1], b[:, i : i + 1]).tobytes() == delta[:, i : i + 1].tobytes()

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_uniform_and_d2_stay_dense(self, d, monkeypatch):
        # every Hessian solve of these problems is a dense (d, d) one
        shapes = []
        real = implicit._hessian_solve

        def recording(coupling, x, b):
            shapes.append(coupling.kernel.shape)
            return real(coupling, x, b)

        monkeypatch.setattr(implicit, "_hessian_solve", recording)
        a = np.random.default_rng(d).uniform(-3.0, 3.0, (4, d))
        for c in (uniform_c(d, 0.5), tridiag_c(np.full(d - 1, 0.5))):
            solve_batch(a, c)
            solve_homotopy(ImplicitProblem(a[0], c))
            if d >= 3 and not c[0, -1]:
                assert all(s[0] == d - 1 for s in shapes)
            else:
                assert all(s[:2] == (d, d) for s in shapes)
            shapes.clear()

