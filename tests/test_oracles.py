"""Oracles that do not depend on the scheme: exact laws of the paper's systems."""

import numpy as np
import pytest
from scipy import stats

from noncolliding import (
    ConstantMatrixDiffusion,
    OrnsteinUhlenbeckDrift,
    ParticleSystem,
    TimeGrid,
    ZeroDrift,
    moment_profile,
    simulate_batch,
    tridiagonal_gamma,
    uniform_gamma,
)
from noncolliding.analysis import _batch_increments
from noncolliding.scheme import generate_brownian_batch


@pytest.mark.parametrize(
    "d, theta, coupling",
    [(4, 0.0, "uniform"), (8, 0.0, "uniform"), (8, 2.0, "uniform"), (8, 0.0, "nearest_neighbour")],
    ids=["rows_innermost", "particles_innermost", "ornstein_uhlenbeck", "nearest_neighbour"],
)
def test_dyson_second_moment(d, theta, coupling):
    # gamma on P pairs, drift theta * (0 - x) and sigma = I: Ito's formula on
    # |X|^2 sums the pair terms gamma * (x_i - x_j) / (x_i - x_j) to
    # 2 * gamma * P, so d E|X_t|^2 / dt = -2 theta E|X_t|^2 + k with
    # k = d + 2 * gamma * P, and E|X_T|^2 = |x0|^2 + T * k at theta = 0,
    # e^{-2 theta T} |x0|^2 + k (1 - e^{-2 theta T}) / (2 theta) otherwise.
    # P is d (d - 1) / 2 for uniform gamma and d - 1 for nearest-neighbour
    # gamma, whose band kernel runs at d >= 3.  The scheme's bias shrinks with
    # the step, to within 3 standard errors at n = 64, and at n = 256 for
    # nearest-neighbour gamma, whose error at n = 64 is about 3 standard errors.
    gamma, T = 1.0, 1.0
    x0 = np.linspace(-1.5, 1.5, d)
    drift = OrnsteinUhlenbeckDrift(theta, np.zeros(d)) if theta else ZeroDrift()
    uniform = coupling == "uniform"
    system = ParticleSystem(
        d=d, gamma=(uniform_gamma if uniform else tridiagonal_gamma)(d, gamma), drift=drift,
        diffusion=ConstantMatrixDiffusion(np.eye(d)), x0=x0,
    )
    k = d + 2.0 * gamma * (d * (d - 1) // 2 if uniform else d - 1)
    decay = np.exp(-2.0 * theta * T)
    exact = x0 @ x0 + T * k if theta == 0 else decay * (x0 @ x0) + k * (1.0 - decay) / (2.0 * theta)
    levels = (4, 16, 64) if uniform else (4, 16, 64, 256)
    reports = [moment_profile(system, T, 2, 2000, n, base_seed=3, times=[T])[0] for n in levels]
    errors = [abs(r.est_abs_moment - exact) for r in reports]
    assert all(coarse > fine for coarse, fine in zip(errors, errors[1:]))
    assert errors[-1] <= 3.0 * reports[-1].abs_moment_std_err


@pytest.mark.parametrize("gamma", [0.5, 1.0, 4.0])
def test_pair_gap_is_a_bessel_process(gamma):
    # d = 2, uniform gamma, zero drift and sigma = I: Y = (X_2 - X_1) / sqrt(2)
    # solves dY = gamma / Y dt + dB, a Bessel process of dimension 1 + 2 gamma,
    # so (X_2 - X_1)^2 / 2 at T = 1 is noncentral chi-squared with 1 + 2 gamma
    # degrees of freedom and noncentrality Y_0^2 = 0.005.  4,000 paths put the
    # KS statistic's noise near 0.02, so the gate is the fall from n = 8 to
    # n = 256 and a fit at n = 256, not a fall at every level.
    system = ParticleSystem(
        d=2, gamma=uniform_gamma(2, gamma), drift=ZeroDrift(), diffusion=ConstantMatrixDiffusion(np.eye(2)),
        x0=[-0.05, 0.05],
    )
    law = stats.ncx2(1.0 + 2.0 * gamma, 0.005)
    fits = []
    for n in (8, 256):
        recorded, _ = simulate_batch(system, TimeGrid(1.0, n), generate_brownian_batch(11, 4000, 2, 1.0, n), n)
        gap = recorded[:, -1, 1] - recorded[:, -1, 0]
        fits.append(stats.kstest(gap**2 / 2.0, law.cdf))
    coarse, fine = fits
    assert fine.statistic < 0.5 * coarse.statistic
    assert fine.pvalue > 1e-3


def hermite_eigenvalues(rng, d, beta, count):
    # Dumitriu-Edelman (J. Math. Phys. 43, 2002): the eigenvalues of the
    # symmetric tridiagonal matrix with diagonal N(0, 1) and off-diagonal
    # sqrt(chi^2_{beta (d - k)} / 2), k = 1..d-1, have the beta-Hermite law
    # with density proportional to prod |l_i - l_j|^beta exp(-sum l_i^2 / 2)
    h = np.zeros((count, d, d))
    idx = np.arange(d)
    h[:, idx, idx] = rng.normal(size=(count, d))
    off = np.sqrt(rng.chisquare(beta * np.arange(d - 1, 0, -1), size=(count, d - 1)) / 2.0)
    h[:, idx[:-1], idx[1:]] = h[:, idx[1:], idx[:-1]] = off
    return np.linalg.eigvalsh(h)


def test_dyson_positions_have_the_beta_hermite_law():
    # uniform gamma, zero drift and sigma = I: dX_i = dB_i + sum_j gamma / (X_i - X_j) dt
    # is Dyson Brownian motion with beta = 2 gamma, and started at 0, X_T has
    # the law of sqrt(T) times the beta-Hermite eigenvalues.  The start
    # 1e-3 away from 0 moves the law far less than 2,000 paths can see, so,
    # as for the Bessel oracle, the gate is the fall of the two-sample KS
    # statistic of the outer particles from n = 8 to n = 256 and a fit at n = 256.
    d, gamma, T, paths = 4, 1.0, 1.0, 2000
    system = ParticleSystem(
        d=d, gamma=uniform_gamma(d, gamma), drift=ZeroDrift(), diffusion=ConstantMatrixDiffusion(np.eye(d)),
        x0=np.linspace(-1e-3, 1e-3, d),
    )
    law = np.sqrt(T) * hermite_eigenvalues(np.random.default_rng(5), d, 2.0 * gamma, 4000)
    fits = []
    for n in (8, 256):
        recorded, _ = simulate_batch(system, TimeGrid(T, n), _batch_increments(5, 0, paths, d, T, n), n)
        fits.append([stats.ks_2samp(recorded[:, -1, i], law[:, i]) for i in (0, d - 1)])
    for coarse, fine in zip(*fits):
        assert fine.statistic < 0.5 * coarse.statistic
        assert fine.pvalue > 1e-3
