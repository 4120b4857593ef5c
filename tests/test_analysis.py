"""Unit tests for the convergence harness, moments, and inequality oracles."""

import tracemalloc

import numpy as np
import pytest

from noncolliding import (
    ConstantMatrixDiffusion,
    ConvergenceStudy,
    CustomDrift,
    DiagonalBoundedDiffusion,
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
from noncolliding.analysis import (
    sample_chamber_points,
    sweep_gap_inequality_full,
    sweep_gap_inequality_nn,
)
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
        # 4x longer reference path needs no more memory
        def peak(ref_level):
            study = ConvergenceStudy(dyson(3, 4.0), 1.0, (16, 32, 64), ref_level, 100, base_seed=2)
            tracemalloc.start()
            try:
                run_study(study)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

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

    def test_memory_holds_one_chunk(self):
        from noncolliding.analysis import CHUNK

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

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_bar(2, 0)
        with pytest.raises(ValueError):
            chi_bar(3, -1)
        with pytest.raises(ValueError, match="p must be below"):
            chi_bar(3, 1e308)
