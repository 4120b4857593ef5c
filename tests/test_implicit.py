"""Unit tests for the per-step implicit-system solvers."""

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


ALL_METHODS_D2 = ["newton", "homotopy", "fixed_point_nn"]
ALL_METHODS_D3 = ["newton", "homotopy", "alternating_d3"]


class TestProblemValidation:
    def test_rejects_scalar_a(self):
        with pytest.raises(ValueError):
            ImplicitProblem(np.zeros((2, 2)), uniform_c(2, 1.0))

    def test_rejects_single_particle(self):
        with pytest.raises(ValueError):
            ImplicitProblem(np.array([0.0]), np.zeros((1, 1)))

    def test_rejects_asymmetric_c(self):
        c = uniform_c(3, 1.0)
        c[0, 1] = 2.0
        with pytest.raises(ValueError):
            ImplicitProblem(np.zeros(3), c)

    def test_rejects_negative_c(self):
        c = uniform_c(3, 1.0)
        c[0, 2] = c[2, 0] = -1.0
        with pytest.raises(ValueError):
            ImplicitProblem(np.zeros(3), c)

    def test_rejects_zero_superdiagonal(self):
        with pytest.raises(ValueError):
            ImplicitProblem(np.zeros(3), tridiag_c([1.0, 0.0]))

    def test_structure_predicates(self):
        p = ImplicitProblem(np.zeros(3), tridiag_c([1.0, 2.0]))
        assert p.is_tridiagonal() and not p.is_uniform()
        q = ImplicitProblem(np.zeros(3), uniform_c(3, 1.0))
        assert q.is_uniform() and not q.is_tridiagonal()
        # d = 2 uniform coefficients are both
        r = ImplicitProblem(np.zeros(2), uniform_c(2, 1.0))
        assert r.is_uniform() and r.is_tridiagonal()


class TestResidualJacobian:
    def test_residual_zero_at_solution(self):
        p = ImplicitProblem(np.array([0.0, 0.0]), uniform_c(2, 1.0))
        xi = np.array([-np.sqrt(2) / 2, np.sqrt(2) / 2])
        assert np.max(np.abs(residual(p, xi))) < 1e-15

    def test_residual_requires_ordering(self):
        p = ImplicitProblem(np.array([0.0, 0.0]), uniform_c(2, 1.0))
        with pytest.raises(ValueError):
            residual(p, np.array([1.0, -1.0]))

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
        """16-step continuation with every Hessian solve recorded.

        Returns (iterations, velocity solves, Newton polish solves); a
        velocity solve is one whose right-hand side is g(J), the same in
        every velocity evaluation.
        """
        calls = []
        real = implicit._hessian_solve

        def counting(w, b):
            calls.append((w.tobytes(), b.tobytes()))
            return real(w, b)

        monkeypatch.setattr(implicit, "_hessian_solve", counting)
        opts = SolverOptions(method="homotopy", homotopy_steps=16)
        _, iterations = implicit._homotopy(ImplicitProblem(np.array(a), c), opts)
        velocity = [call for call in calls if call[1] == calls[0][1]]
        return iterations, velocity, len(calls) - len(velocity)

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

    @pytest.mark.parametrize("d", [16, 64])
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
