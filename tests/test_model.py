"""Unit tests for system definitions and parameter-condition checks."""

import numpy as np
import pytest

from noncolliding import (
    BoundedSmoothDrift,
    ConstantDrift,
    ConstantMatrixDiffusion,
    CustomDiffusion,
    CustomDrift,
    DiagonalBoundedDiffusion,
    OrnsteinUhlenbeckDrift,
    ParticleSystem,
    ZeroDrift,
    check_full_interaction_condition,
    check_nn_condition,
    diffusion_eval,
    drift_eval,
    moment_profile,
    tridiagonal_gamma,
    uniform_gamma,
)
from noncolliding.model import is_tridiagonal, is_uniform


def dyson(d, gamma, x0=None, drift=None, diffusion=None):
    return ParticleSystem(
        d=d,
        gamma=uniform_gamma(d, gamma),
        drift=drift or ZeroDrift(),
        diffusion=diffusion or ConstantMatrixDiffusion(np.eye(d)),
        x0=np.linspace(-1.0, 1.0, d) if x0 is None else np.asarray(x0, dtype=float),
    )


class TestDrifts:
    def test_zero(self):
        assert np.all(drift_eval(ZeroDrift(), np.array([1.0, 2.0])) == 0.0)
        assert ZeroDrift().lipschitz_constant() == 0.0

    def test_constant_requires_nondecreasing(self):
        with pytest.raises(ValueError):
            ConstantDrift(np.array([1.0, 0.0]))
        d = ConstantDrift(np.array([-1.0, 2.0]))
        assert np.allclose(drift_eval(d, np.zeros(2)), [-1.0, 2.0])

    def test_ornstein_uhlenbeck(self):
        d = OrnsteinUhlenbeckDrift(theta=0.5, mu=np.array([-1.0, 1.0]))
        assert np.allclose(drift_eval(d, np.array([0.0, 0.0])), [-0.5, 0.5])
        assert d.lipschitz_constant() == 0.5
        with pytest.raises(ValueError):
            OrnsteinUhlenbeckDrift(theta=-1.0, mu=np.array([0.0, 1.0]))

    def test_bounded_smooth(self):
        d = BoundedSmoothDrift(beta=2.0)
        assert np.allclose(drift_eval(d, np.array([0.0])), [0.0])
        assert d.lipschitz_constant() == 2.0

    def test_custom_trusted(self):
        d = CustomDrift(evaluator=lambda x: -x, declared_lipschitz=1.0)
        assert np.allclose(drift_eval(d, np.array([2.0, -3.0])), [-2.0, 3.0])
        assert d.lipschitz_constant() == 1.0


class TestDiffusions:
    def test_constant_matrix_sup(self):
        m = np.array([[1.0, 2.0], [0.5, 0.5]])
        s = ConstantMatrixDiffusion(m)
        assert s.sigma_sup_sq() == pytest.approx(5.0)  # max row sum of squares
        assert np.array_equal(diffusion_eval(s, np.zeros(2)), m)

    def test_constant_matrix_requires_square(self):
        with pytest.raises(ValueError):
            ConstantMatrixDiffusion(np.ones((2, 3)))

    def test_diagonal_bounded(self):
        s = DiagonalBoundedDiffusion(s0=0.8, s1=0.2)
        assert s.sigma_sup_sq() == pytest.approx(1.0)
        x = np.array([0.0, 100.0])
        mat = diffusion_eval(s, x)
        assert mat[0, 0] == pytest.approx(0.8)
        assert mat[1, 1] == pytest.approx(1.0, abs=1e-12)
        assert mat[0, 1] == 0.0
        # batched diagonal helper
        batch = s.diagonal(np.zeros((4, 2)))
        assert batch.shape == (4, 2)

    def test_diagonal_bounded_validation(self):
        with pytest.raises(ValueError):
            DiagonalBoundedDiffusion(s0=0.0)
        with pytest.raises(ValueError):
            DiagonalBoundedDiffusion(s0=1.0, s1=-0.1)

    def test_custom_trusted(self):
        s = CustomDiffusion(
            evaluator=lambda x: np.eye(len(x)), declared_lipschitz=0.0, declared_sup_sq=1.0
        )
        assert s.sigma_sup_sq() == 1.0


class TestGammaConstructors:
    def test_uniform(self):
        g = uniform_gamma(3, 2.0)
        assert np.all(np.diag(g) == 0)
        assert g[0, 2] == 2.0 and g[1, 0] == 2.0

    def test_tridiagonal(self):
        g = tridiagonal_gamma(4, 1.5)
        assert g[0, 1] == 1.5 and g[1, 0] == 1.5
        assert g[0, 2] == 0.0 and g[0, 3] == 0.0

    def test_tridiagonal_per_pair_values(self):
        g = tridiagonal_gamma(4, [1.0, 2.0, 3.0])
        assert np.array_equal(np.diag(g, 1), [1.0, 2.0, 3.0])
        assert np.array_equal(g, g.T)
        assert not np.any(np.triu(g, 2))
        assert np.array_equal(tridiagonal_gamma(4, [1.5]), tridiagonal_gamma(4, 1.5))


class TestParticleSystem:
    def test_valid_dyson(self):
        sys_ = dyson(3, 4.0)
        assert is_uniform(sys_.gamma) and sys_.gamma[0, 1] == 4.0
        assert not is_tridiagonal(sys_.gamma)

    def test_tridiagonal_helpers(self):
        sys_ = ParticleSystem(
            d=3,
            gamma=tridiagonal_gamma(3, 2.0),
            drift=ZeroDrift(),
            diffusion=ConstantMatrixDiffusion(np.eye(3)),
            x0=np.array([-1.0, 0.0, 1.0]),
        )
        assert is_tridiagonal(sys_.gamma)
        assert np.allclose(np.diag(sys_.gamma, 1), [2.0, 2.0])

    def test_rejects_unordered_x0(self):
        with pytest.raises(ValueError):
            dyson(3, 1.0, x0=[0.0, 0.0, 1.0])

    @pytest.mark.parametrize("x0", [[0.0, np.nan, 1.0], [-np.inf, 0.0, 1.0]])
    def test_rejects_non_finite_x0(self, x0):
        with pytest.raises(ValueError, match="x0 must be finite and strictly increasing"):
            dyson(3, 1.0, x0=x0)

    def test_rejects_asymmetric_gamma(self):
        g = uniform_gamma(3, 1.0)
        g[0, 1] = 9.0
        with pytest.raises(ValueError):
            ParticleSystem(
                d=3, gamma=g, drift=ZeroDrift(),
                diffusion=ConstantMatrixDiffusion(np.eye(3)),
                x0=np.array([-1.0, 0.0, 1.0]),
            )

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_gamma(self, value):
        g = uniform_gamma(3, 1.0)
        g[0, 2] = g[2, 0] = value
        with pytest.raises(ValueError, match="gamma entries must be non-negative and finite"):
            ParticleSystem(
                d=3, gamma=g, drift=ZeroDrift(),
                diffusion=ConstantMatrixDiffusion(np.eye(3)),
                x0=np.array([-1.0, 0.0, 1.0]),
            )

    def test_rejects_zero_superdiagonal_gamma(self):
        g = np.zeros((3, 3))
        g[0, 2] = g[2, 0] = 1.0
        with pytest.raises(ValueError):
            ParticleSystem(
                d=3, gamma=g, drift=ZeroDrift(),
                diffusion=ConstantMatrixDiffusion(np.eye(3)),
                x0=np.array([-1.0, 0.0, 1.0]),
            )

    @pytest.mark.parametrize(
        "coefficient",
        [
            dict(drift=ConstantDrift(np.array([1.0]))),
            dict(drift=ConstantDrift(np.array([1.0, 2.0]))),
            dict(drift=CustomDrift(evaluator=lambda x: x[:2], declared_lipschitz=1.0)),
            dict(diffusion=ConstantMatrixDiffusion(np.eye(2))),
            dict(diffusion=CustomDiffusion(lambda x: np.ones(3), 0.0, 1.0)),
        ],
        ids=["constant_one_value", "constant_two_values", "custom_drift", "matrix_2x2", "custom_vector"],
    )
    def test_rejects_coefficient_shapes(self, coefficient):
        # d = 3: each coefficient is checked once at x0, not broadcast
        with pytest.raises(ValueError, match=f"^{next(iter(coefficient))} must give"):
            dyson(3, 1.0, **coefficient)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: OrnsteinUhlenbeckDrift(theta=v, mu=np.zeros(1)),
            lambda v: OrnsteinUhlenbeckDrift(theta=0.5, mu=np.array([0.0, v])),
            lambda v: ConstantDrift(np.array([0.0, v])),
            lambda v: BoundedSmoothDrift(beta=v),
            lambda v: DiagonalBoundedDiffusion(s0=v),
            lambda v: DiagonalBoundedDiffusion(s0=1.0, s1=v),
            lambda v: ConstantMatrixDiffusion(np.diag([1.0, v])),
            lambda v: dyson(3, 1.0, drift=OrnsteinUhlenbeckDrift(theta=v, mu=np.zeros(1))),
            lambda v: moment_profile(dyson(3, 1.0), 1.0, v, 2, 2),
        ],
        ids=["ou_theta", "ou_mu", "constant_c", "bounded_beta", "diagonal_s0", "diagonal_s1", "matrix",
             "system_ou_theta", "moment_profile_p"],
    )
    def test_rejects_non_finite_parameter(self, build, value):
        # NaN passed every comparison-based check (nan < 0 is False)
        with pytest.raises(ValueError, match="finite"):
            build(value)

    def test_common_ou_mean_is_a_length_d_drift(self):
        sys_ = dyson(3, 1.0, drift=OrnsteinUhlenbeckDrift(0.5, np.array([0.2])))
        assert np.array_equal(drift_eval(sys_.drift, sys_.x0), 0.5 * (0.2 - sys_.x0))


class TestConditions:
    def test_full_interaction_pass(self):
        # d=3, gamma=4, sigma=I: ratio = 12/3 = 4 >= 2, p <= 3
        report = check_full_interaction_condition(dyson(3, 4.0), p=3)
        assert report.satisfied
        names = [c.name for c in report.checks]
        assert len(names) == 2

    def test_full_interaction_fail(self):
        # d=3, gamma=1: ratio = 1 < 2
        report = check_full_interaction_condition(dyson(3, 1.0), p=1)
        assert not report.satisfied
        assert report.checks[0].lhs == pytest.approx(1.0)

    def test_full_interaction_boundary(self):
        # ratio exactly 2 passes the first check; p = 1 = ratio - 1 passes the second
        sys_ = dyson(3, 2.0)
        report = check_full_interaction_condition(sys_, p=1)
        assert report.satisfied

    def test_full_requires_uniform(self):
        sys_ = ParticleSystem(
            d=3, gamma=tridiagonal_gamma(3, 1.0), drift=ZeroDrift(),
            diffusion=ConstantMatrixDiffusion(np.eye(3)),
            x0=np.array([-1.0, 0.0, 1.0]),
        )
        with pytest.raises(ValueError):
            check_full_interaction_condition(sys_, p=1)

    def test_nn_condition(self):
        sys_ = ParticleSystem(
            d=3, gamma=tridiagonal_gamma(3, 8.0), drift=ZeroDrift(),
            diffusion=ConstantMatrixDiffusion(np.eye(3)),
            x0=np.array([-1.0, 0.0, 1.0]),
        )
        # lhs = 8/2 = 4; chi = sqrt(2): rhs = 2/(2-sqrt 2) ~ 3.414 -> satisfied
        report = check_nn_condition(sys_, p=1, chi=np.sqrt(2.0))
        assert report.satisfied
        assert report.checks[0].lhs == pytest.approx(4.0)
        # gamma = 2: lhs = 1 < rhs -> not satisfied
        weak = ParticleSystem(
            d=3, gamma=tridiagonal_gamma(3, 2.0), drift=ZeroDrift(),
            diffusion=ConstantMatrixDiffusion(np.eye(3)),
            x0=np.array([-1.0, 0.0, 1.0]),
        )
        assert not check_nn_condition(weak, p=1, chi=np.sqrt(2.0)).satisfied

    def test_nn_rejects_chi_at_least_two(self):
        sys_ = ParticleSystem(
            d=3, gamma=tridiagonal_gamma(3, 8.0), drift=ZeroDrift(),
            diffusion=ConstantMatrixDiffusion(np.eye(3)),
            x0=np.array([-1.0, 0.0, 1.0]),
        )
        with pytest.raises(ValueError):
            check_nn_condition(sys_, p=1, chi=2.0)

    def test_custom_drift_excluded_from_checks(self):
        sys_ = dyson(3, 4.0, drift=CustomDrift(evaluator=lambda x: 0.0 * x, declared_lipschitz=0.0))
        with pytest.raises(ValueError):
            check_full_interaction_condition(sys_, p=1)
