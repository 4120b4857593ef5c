"""Unit tests for the convergence harness, moments, and inequality oracles."""

import os
import tracemalloc

import numpy as np
import pytest
from conftest import assert_no_child_left
from hypothesis import given, settings
from hypothesis import strategies as st

from noncolliding import (
    ConstantMatrixDiffusion,
    ConvergenceStudy,
    CustomDrift,
    DiagonalBoundedDiffusion,
    NonConvergenceError,
    OrnsteinUhlenbeckDrift,
    ParticleSystem,
    TimeGrid,
    ZeroDrift,
    chi_bar,
    collision_rate_explicit,
    fit_rate,
    moment_profile,
    run_study,
    simulate,
    simulate_batch,
    uniform_gamma,
    verify_gap_inequality_full,
    verify_gap_inequality_nn,
)
from noncolliding import analysis, scheme
from noncolliding.analysis import (
    ERROR_MODES,
    sample_chamber_points,
    sweep_gap_inequality_full,
    sweep_gap_inequality_nn,
)
from noncolliding.cli import main
from noncolliding.model import check_full_interaction_condition, check_nn_condition, tridiagonal_gamma


NN_SYSTEM = ParticleSystem(
    d=4, gamma=tridiagonal_gamma(4, 8.0), drift=ZeroDrift(),
    diffusion=ConstantMatrixDiffusion(np.eye(4)), x0=np.linspace(-1.0, 1.0, 4),
)


def dyson(d, gamma, x0=None):
    return ParticleSystem(
        d=d,
        gamma=uniform_gamma(d, gamma),
        drift=ZeroDrift(),
        diffusion=ConstantMatrixDiffusion(np.eye(d)),
        x0=np.linspace(-1.0, 1.0, d) if x0 is None else np.asarray(x0, dtype=float),
    )


class TestStudyValidation:
    def test_valid(self):
        ConvergenceStudy(dyson(3, 4.0), 1.0, (16, 32, 64), 512, 10)

    def test_ref_must_be_4x(self):
        with pytest.raises(ValueError):
            ConvergenceStudy(dyson(3, 4.0), 1.0, (16, 32, 64), 128, 10)

    def test_levels_must_be_dyadic(self):
        with pytest.raises(ValueError):
            ConvergenceStudy(dyson(3, 4.0), 1.0, (16, 24), 512, 10)

    def test_levels_must_divide_ref(self):
        with pytest.raises(ValueError):
            ConvergenceStudy(dyson(3, 4.0), 1.0, (16,), 257, 10)

    @pytest.mark.parametrize("field", ["T", "p"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_horizon_and_order(self, field, value):
        args = {"T": 1.0, "p": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
            ConvergenceStudy(dyson(3, 4.0), args["T"], (16,), 256, 10, p=args["p"])

    def test_error_mode_checked(self):
        with pytest.raises(ValueError):
            ConvergenceStudy(dyson(3, 4.0), 1.0, (16,), 256, 10, error_mode="weak")


class TestFitRate:
    def test_exact_power_law(self):
        # error = 3 * n^{-0.5}: slope must come out exactly 0.5
        est = fit_rate([(n, 3.0 * n**-0.5) for n in (16, 32, 64, 128)])
        assert est.slope == pytest.approx(0.5, abs=1e-12)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)
        assert est.intercept == pytest.approx(np.log2(3.0), abs=1e-10)

    def test_rate_one(self):
        est = fit_rate([(n, 10.0 / n) for n in (8, 16, 32)])
        assert est.slope == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            fit_rate([(16, 0.1), (32, 0.05)])

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(ValueError):
            fit_rate([(16, 0.1), (32, 0.0), (64, 0.01)])


class TestStrongError:
    def test_errors_decrease_with_level(self):
        study = ConvergenceStudy(dyson(3, 4.0), 1.0, (8, 16, 32), 256, 100, base_seed=5)
        est = run_study(study)
        assert est.errors[0] > est.errors[1] > est.errors[2] > 0
        assert est.slope > 0.2
        assert all(se > 0 for se in est.std_errs)

    def test_deterministic_given_seed(self):
        study = ConvergenceStudy(dyson(3, 4.0), 1.0, (8, 16, 32), 128, 40, base_seed=9)
        e1 = run_study(study)
        e2 = run_study(study)
        assert e1.errors == e2.errors
        # one level alone has the bits of that level in the whole study
        from noncolliding import analysis

        power = analysis._moment_power(study.error_mode, study.p)
        alone = [analysis._lp_estimate(analysis._per_level_errors(study, (n,))[n], power) for n in study.levels]
        assert alone == list(zip(e1.errors, e1.std_errs))

    def test_chunk_size_does_not_change_result(self, monkeypatch):
        study = ConvergenceStudy(dyson(3, 4.0), 1.0, (8, 16, 32), 128, 40, base_seed=9)
        from noncolliding import analysis

        monkeypatch.setattr(analysis, "CHUNK", 16)
        chunked = analysis._per_level_errors(study, study.levels)
        monkeypatch.setattr(analysis, "CHUNK", 40)
        whole = analysis._per_level_errors(study, study.levels)
        # blocks of the coarsest factor (128 // 8 = 16 fine steps) and of the whole path
        for block in (1, study.ref_level):
            monkeypatch.setattr(analysis, "BLOCK", block)
            blocked = analysis._per_level_errors(study, study.levels)
            for n in study.levels:
                assert np.array_equal(blocked[n], whole[n])
        for n in study.levels:
            assert np.array_equal(chunked[n], whole[n])

    def test_memory_does_not_grow_with_ref_level(self):
        # the increments are drawn and stepped one time block at a time, so a
        # 4x longer reference path needs no more memory; the first study of a
        # process peaks higher (one-time allocations), so one runs unmeasured
        def peak(ref_level):
            study = ConvergenceStudy(dyson(3, 4.0), 1.0, (16, 32, 64), ref_level, 100, base_seed=2)
            tracemalloc.start()
            try:
                run_study(study)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(256)
        assert peak(1024) <= 1.1 * peak(256)


class TestMoments:
    def test_time_zero_exact(self):
        sys_ = dyson(3, 4.0)  # gaps = (1, 1)
        rep = moment_profile(sys_, 1.0, 2.0, 1, 1, base_seed=0, times=[0.0])[0]
        assert rep.est_abs_moment == pytest.approx(np.sum(sys_.x0**2))
        assert np.allclose(rep.est_inv_gap_moments, [1.0, 1.0])
        assert rep.bound == pytest.approx(2.0)

    def test_profile_monotone_time_and_bound_fields(self):
        sys_ = dyson(3, 4.0)
        reports = moment_profile(sys_, 1.0, 2.0, 200, 64, base_seed=1, times=[0.0, 0.5, 1.0])
        assert [r.t for r in reports] == [0.0, 0.5, 1.0]
        for r in reports:
            assert r.bound == pytest.approx(2.0)  # zero drift: no growth factor
            assert r.est_inv_gap_moments.shape == (2,)
        # one time alone has the bits it has in the profile
        alone = moment_profile(sys_, 1.0, 2.0, 200, 64, base_seed=1, times=[1.0])[0]
        assert (alone.est_abs_moment, alone.abs_moment_std_err) == (reports[2].est_abs_moment, reports[2].abs_moment_std_err)
        assert np.array_equal(alone.est_inv_gap_moments, reports[2].est_inv_gap_moments)

    def test_rejects_negative_p(self):
        with pytest.raises(ValueError):
            moment_profile(dyson(3, 4.0), 1.0, -1.0, 10, 16)

    @pytest.mark.parametrize("t", [-0.25, 1.5, 5.0, float("nan")])
    def test_rejects_times_outside_horizon(self, t):
        with pytest.raises(ValueError, match=r"\[0, T\]"):
            moment_profile(dyson(3, 4.0), 1.0, 2.0, 10, 16, times=[0.5, t])

    def test_rejects_empty_times(self):
        with pytest.raises(ValueError, match="times must not be empty"):
            moment_profile(dyson(3, 4.0), 1.0, 2.0, 10, 16, times=[])

    @pytest.mark.parametrize("M", [0, -1])
    def test_rejects_fewer_than_one_path(self, M):
        with pytest.raises(ValueError, match=r"M must be >= 1"):
            moment_profile(dyson(3, 4.0), 1.0, 2.0, M, 16)

    def test_chunks_equal_one_batch(self):
        from noncolliding.analysis import CHUNK, _batch_increments

        sys_, T, p, n, M, seed = dyson(3, 4.0), 1.0, 1.5, 16, 2 * CHUNK + 7, 4
        reports = moment_profile(sys_, T, p, M, n, base_seed=seed, times=[0.0, 0.25, 1.0])
        rec, _ = simulate_batch(sys_, TimeGrid(T, n), _batch_increments(seed, 0, M, 3, T, n))
        states = rec[:, [0, 4, 16]]
        abs_pow = np.linalg.norm(states, axis=2) ** p
        inv_pow = np.diff(states, axis=2) ** -p
        for j, r in enumerate(reports):
            assert r.est_abs_moment == abs_pow[:, j].mean()
            assert r.abs_moment_std_err == abs_pow[:, j].std(ddof=1) / np.sqrt(M)
            assert np.array_equal(r.est_inv_gap_moments, inv_pow[:, j].mean(axis=0))
            assert np.array_equal(r.inv_gap_std_errs, inv_pow[:, j].std(axis=0, ddof=1) / np.sqrt(M))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_holds_one_chunk(self, workers, monkeypatch):
        from noncolliding.analysis import CHUNK

        monkeypatch.setattr(scheme, "_cpus", lambda: workers)

        def peak(M):
            tracemalloc.start()
            try:
                moment_profile(dyson(3, 4.0), 1.0, 2.0, M, 512, base_seed=3, times=[0.5, 1.0])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * CHUNK) <= 1.1 * peak(CHUNK)


class TestCollision:
    def test_strong_repulsion_never_exits(self):
        rate = collision_rate_explicit(dyson(3, 4.0), n=64, M=200, seed=0)
        assert rate == 0.0

    def test_weak_repulsion_coarse_grid_exits(self):
        rate = collision_rate_explicit(dyson(3, 1.0, x0=[-0.5, 0.0, 0.5]), n=4, M=500, seed=123)
        assert rate > 0.0

    def test_deterministic(self):
        sys_ = dyson(3, 1.0, x0=[-0.5, 0.0, 0.5])
        assert collision_rate_explicit(sys_, 4, 300, 7) == collision_rate_explicit(sys_, 4, 300, 7)

    def test_single_state_custom_drift(self):
        # a custom evaluator takes one state of length d, never a batch
        theta, mu = 0.5, np.array([-1.0, 0.0, 1.0])

        def ou(x):
            assert x.ndim == 1
            return theta * (mu - x)

        def system(drift):
            return ParticleSystem(
                d=3,
                gamma=uniform_gamma(3, 1.0),
                drift=drift,
                diffusion=DiagonalBoundedDiffusion(s0=0.8, s1=0.2),
                x0=np.array([-0.5, 0.0, 0.5]),
            )

        custom = collision_rate_explicit(system(CustomDrift(ou, theta)), 4, 300, 11)
        closed = collision_rate_explicit(system(OrnsteinUhlenbeckDrift(theta, mu)), 4, 300, 11)
        assert custom == closed > 0.0

    def test_rate_is_exit_fraction_of_explicit_paths(self):
        # M = 2100 spans several chunks of CHUNK replications and ends in a partial one
        from noncolliding.analysis import _batch_increments
        from noncolliding.scheme import BrownianPath

        sys_ = dyson(3, 1.0, x0=[-0.5, 0.0, 0.5])
        n, M, seed = 4, 2100, 5
        inc = _batch_increments(seed, 0, M, 3, 1.0, n)
        grid = TimeGrid(1.0, n)
        exits = sum(
            simulate(sys_, grid, BrownianPath(seed, 3, 1.0, n, inc[rep]), scheme="explicit").exited_chamber
            for rep in range(M)
        )
        assert 0 < exits < M
        assert collision_rate_explicit(sys_, n, M, seed) == exits / M


WORKERS_YAML = """
system:
  d: 3
  gamma:
    uniform: 1.0
  drift:
    kind: ornstein_uhlenbeck
    theta: 0.5
    mu: [-1.0, 0.0, 1.0]
  diffusion:
    kind: constant_matrix
    matrix: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
  x0: [-0.5, 0.0, 0.5]
run:
  T: 1.0
  n: 4
  levels: [4, 8, 16]
  ref_level: 64
  paths: 71
  seed: 3
"""


class TestWorkers:
    """The shares of a chunk step in worker processes without moving a bit."""

    # two chunks of CHUNK = 40 rows: 40 splits into 13 + 13 + 14 rows among
    # 3 workers, and the last 31 rows into 15 + 16 and 10 + 10 + 11
    M = 71

    @pytest.fixture
    def workers(self, monkeypatch):
        monkeypatch.setattr(analysis, "CHUNK", 40)
        monkeypatch.setattr(scheme, "SHARE", 8)
        return lambda count: monkeypatch.setattr(scheme, "_cpus", lambda: count)

    def estimates(self, config_path, capsys):
        """Every Monte Carlo estimate, as exact values and CLI stdout."""
        system = dyson(3, 1.0, x0=[-0.5, 0.0, 0.5])
        out = {}
        for mode in ERROR_MODES:
            study = ConvergenceStudy(system, 1.0, (4, 8, 16), 64, self.M, error_mode=mode, p=1.5, base_seed=3)
            est = run_study(study)
            samples = analysis._per_level_errors(study, study.levels)
            out[mode] = (est.errors, est.std_errs, est.slope, est.intercept, est.r_squared,
                         [samples[n].tobytes() for n in study.levels])
        out["moments"] = [
            (r.t, r.est_abs_moment, r.abs_moment_std_err, r.est_inv_gap_moments.tobytes(), r.inv_gap_std_errs.tobytes())
            for r in moment_profile(system, 1.0, 2.0, self.M, 16, base_seed=5)
        ]
        out["collide"] = collision_rate_explicit(system, 4, self.M, 7)
        for command in ("converge", "moments", "collide"):
            assert main([command, "--config", str(config_path)]) == 0
            out[command + "_stdout"] = capsys.readouterr().out
        return out

    def test_same_bytes_for_any_worker_count(self, workers, monkeypatch, tmp_path, capsys):
        config_path = tmp_path / "workers.yaml"
        config_path.write_text(WORKERS_YAML)
        workers(1)
        one = self.estimates(config_path, capsys)
        assert 0 < one["collide"] < 1
        forked, fork = [], scheme._fork
        monkeypatch.setattr(scheme, "_fork", lambda run, a, b: forked.append((a, b)) or fork(run, a, b))
        for count in (2, 3):
            workers(count)
            assert self.estimates(config_path, capsys) == one
            assert_no_child_left()
        forked.clear()
        collision_rate_explicit(dyson(3, 1.0), 4, self.M, 7)
        assert forked == [(13, 26), (26, 40), (50, 60), (60, 71)]

    def draws(self, monkeypatch, in_worker, in_parent=None):
        """Route the increment draws of each share through the given wrappers."""
        parent, draw = os.getpid(), analysis._batch_increments

        def routed(base_seed, start, stop, *args):
            hook = in_parent if os.getpid() == parent else in_worker
            if hook is not None:
                hook(start, stop)
            return draw(base_seed, start, stop, *args)

        monkeypatch.setattr(analysis, "_batch_increments", routed)

    def test_worker_error_reaches_the_caller(self, workers, monkeypatch, tmp_path, capsys):
        workers(3)

        def fail(start, stop):
            raise NonConvergenceError(f"rows {start} to {stop} failed", method="newton", iterations=7)

        self.draws(monkeypatch, fail)
        # the second and third shares both fail; the second is reported
        with pytest.raises(NonConvergenceError, match=r"^rows 13 to 26 failed$") as caught:
            collision_rate_explicit(dyson(3, 1.0), 4, self.M, 7)
        assert (type(caught.value), caught.value.method, caught.value.iterations) == (NonConvergenceError, "newton", 7)
        assert_no_child_left()
        config_path = tmp_path / "workers.yaml"
        config_path.write_text(WORKERS_YAML)
        assert main(["converge", "--config", str(config_path)]) == 3
        assert capsys.readouterr() == ("", 'error,nonconvergence,"rows 13 to 26 failed"\n')
        assert_no_child_left()

    def test_interrupt_in_the_parent_stops_every_worker(self, workers, monkeypatch):
        workers(3)
        monkeypatch.setattr(analysis, "BLOCK", 1)
        parent_draws = []

        def interrupt_second_block(start, stop):
            parent_draws.append(start)
            if len(parent_draws) == 2:
                raise KeyboardInterrupt

        self.draws(monkeypatch, None, interrupt_second_block)
        with pytest.raises(KeyboardInterrupt):
            moment_profile(dyson(3, 4.0), 1.0, 2.0, self.M, 16, base_seed=5)
        assert parent_draws == [0, 0]
        assert_no_child_left()

    def test_worker_that_dies_is_an_error(self, workers, monkeypatch):
        workers(2)
        self.draws(monkeypatch, lambda start, stop: os._exit(1))
        with pytest.raises(RuntimeError, match="ended without a result"):
            collision_rate_explicit(dyson(3, 1.0), 4, self.M, 7)
        assert_no_child_left()


class TestInequalities:
    def test_full_d3_p0_example(self):
        # x = (0, 1, 2): lhs = 1/((2)(1)) + 1/((1)(2))? both cross terms give 1/2 each -> 1
        lhs, rhs = verify_gap_inequality_full(np.array([0.0, 1.0, 2.0]), 0)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(2.0)  # (2 - 3/3) * (1 + 1)
        assert lhs < rhs

    def test_nn_d3_p0_example(self):
        # x = (0, 1, 2), chi = sqrt(2): lhs = 2, rhs = 2*sqrt(2)
        lhs, rhs = verify_gap_inequality_nn(np.array([0.0, 1.0, 2.0]), 0, np.sqrt(2.0))
        assert lhs == pytest.approx(2.0)
        assert rhs == pytest.approx(2.0 * np.sqrt(2.0))
        assert lhs <= rhs

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            verify_gap_inequality_full(np.array([1.0, 0.0, 2.0]), 0)

    def test_nn_needs_three(self):
        with pytest.raises(ValueError):
            verify_gap_inequality_nn(np.array([0.0, 1.0]), 0, 1.5)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda nan: verify_gap_inequality_full([0.0, 1.0, 2.0], nan), "p"),
            (lambda nan: verify_gap_inequality_nn([0.0, 1.0, 2.0], nan, 1.5), "p"),
            (lambda nan: verify_gap_inequality_nn([0.0, 1.0, 2.0], 1.0, nan), "chi"),
            (lambda nan: chi_bar(3, nan), "p"),
            (lambda nan: sweep_gap_inequality_full(3, nan, 10), "p"),
            (lambda nan: sweep_gap_inequality_nn(3, nan, 1.5, 10), "p"),
            (lambda nan: sweep_gap_inequality_nn(3, 1.0, nan, 10), "chi"),
            (lambda nan: check_full_interaction_condition(dyson(3, 4.0), nan), "p"),
            (lambda nan: check_nn_condition(NN_SYSTEM, nan, 1.5), "p"),
            (lambda nan: check_nn_condition(NN_SYSTEM, 1.0, nan), "chi"),
        ],
        ids=[
            "full_p", "nn_p", "nn_chi", "chi_bar_p", "sweep_full_p", "sweep_nn_p", "sweep_nn_chi",
            "check_full_p", "check_nn_p", "check_nn_chi",
        ],
    )
    def test_nan_parameters_are_refused(self, call, name):
        # every range check of the inequality layer is written so that NaN fails it
        with pytest.raises(ValueError, match=f"^{name} must"):
            call(float("nan"))

    def test_sample_points_ordered(self):
        rng = np.random.default_rng(0)
        pts = sample_chamber_points(rng, 5, 100)
        assert pts.shape == (100, 5)
        assert np.all(np.diff(pts, axis=1) > 0)

    def test_sweeps_run_clean_small(self):
        assert sweep_gap_inequality_full(4, 1, 2000, seed=1) == 0
        chi = chi_bar(3, 1)
        assert sweep_gap_inequality_nn(3, 1, chi, 2000, seed=1) == 0

    def test_sweeps_do_not_overflow_at_large_p(self):
        # the sides are compared at points scaled to a smallest gap of 1; the
        # suite's error::RuntimeWarning filter fails any overflow warning
        assert sweep_gap_inequality_full(3, 400, 1000) == 0
        assert sweep_gap_inequality_nn(3, 400, chi_bar(3, 400), 1000) == 0

    def test_sweep_with_sides_that_are_not_finite_is_refused(self):
        # at p = 1e308 a scaled gap that rounds below 1 still overflows
        with pytest.raises(ValueError, match="^p = 1e[+]308 is too large"):
            sweep_gap_inequality_full(3, 1e308, 1000)


class TestChiBar:
    def test_closed_form_p0(self):
        # maximize 2*xi1*xi2 on the unit circle: sqrt(2) at the symmetric point
        assert chi_bar(3, 0) == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_closed_form_p1(self):
        # maximize 2*xi1*xi2*(xi1 + xi2)/2... sharp value is 2^(1/3); at d = 3
        # it is 2^(1/(p+2)) for every p, and at p = 400 the (p+2)-th powers of
        # a small start underflow
        for p in (1, 400):
            assert chi_bar(3, p) == pytest.approx(2.0 ** (1.0 / (p + 2.0)), abs=1e-6)

    def test_sharpness_no_violation_at_computed_constant(self):
        chi = chi_bar(4, 0)
        assert sweep_gap_inequality_nn(4, 0, chi, 5000, seed=3) == 0

    def test_accurate_up_to_its_bound(self):
        # at d = 3 the sharp value is 2^(1/(p+2)); the error grows like p
        p = np.nextafter(1e4, 0)
        assert chi_bar(3, p) == pytest.approx(2.0 ** (1.0 / (p + 2.0)), rel=1e-12, abs=0)
        for p in (1e4, 1e16):
            with pytest.raises(ValueError, match="p must be below 1e4"):
                chi_bar(3, p)

    def test_closed_forms_to_rounding(self):
        # at p = 0 the form is linear, and its maximum on the 2-sphere is the
        # norm of its coefficients (1, 2, ..., 2, 1); at d = 3 it is 2^(1/(p+2))
        # for every p, fractional too
        for d in range(3, 65):
            assert chi_bar(d, 0) == pytest.approx(np.sqrt(4.0 * d - 10.0), rel=1e-15, abs=0)
        for p in (0.1, 0.25, 0.5, 0.75, 1.5, 2.5, 7.25):
            assert chi_bar(3, p) == pytest.approx(2.0 ** (1.0 / (p + 2.0)), rel=1e-15, abs=0)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.5])
    def test_grid_of_the_sphere_at_d4(self, p):
        # below p = 1 the iteration has no contraction proof: f at every point
        # u^(1/q) of a 1500-step grid of the simplex, which lies on the sphere
        steps = 1500
        i, j = np.triu_indices(steps + 1)
        xi = (np.stack([i, j - i, steps - j]) / steps) ** (1.0 / (p + 2.0))
        best = np.max(xi[1] * (xi[0] ** p + xi[2] ** p) + xi[1] ** p * (xi[0] + xi[2]))
        chi = chi_bar(4, p)
        assert chi - 1e-6 <= best <= chi * (1.0 + 1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(3, 10).flatmap(lambda d: st.lists(st.floats(1e-3, 1.0), min_size=d - 1, max_size=d - 1)),
           st.floats(0.0, 20.0))
    def test_no_point_of_the_sphere_is_above(self, xi, p):
        xi = np.array(xi) / np.sum(np.array(xi) ** (p + 2.0)) ** (1.0 / (p + 2.0))
        f = np.sum(xi[1:] * xi[:-1] ** p + xi[1:] ** p * xi[:-1])
        assert f <= chi_bar(len(xi) + 1, p) * (1.0 + 1e-12)

    def test_iteration_that_does_not_settle_is_an_error(self, monkeypatch):
        # an iterate nudged off the fixed point by turns never settles; at the
        # loop's bound chi_bar raises rather than return it
        on_sphere, turns = analysis._on_sphere, iter(range(10**6))
        monkeypatch.setattr(
            analysis, "_on_sphere", lambda v, q: on_sphere(v, q) * (1.0 + (-1) ** next(turns) * 1e-13)
        )
        with pytest.raises(NonConvergenceError, match="^chi_bar did not converge at d = 4, p = 0 "):
            chi_bar(4, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_bar(2, 0)
        with pytest.raises(ValueError):
            chi_bar(3, -1)
        with pytest.raises(ValueError, match="p must be below"):
            chi_bar(3, 1e308)
