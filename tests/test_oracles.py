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
    uniform_gamma,
)
from noncolliding.scheme import generate_brownian_batch


@pytest.mark.parametrize(
    "d, theta", [(4, 0.0), (8, 0.0), (8, 2.0)], ids=["rows_innermost", "particles_innermost", "ornstein_uhlenbeck"]
)
def test_dyson_second_moment(d, theta):
    # uniform gamma, drift theta * (0 - x) and sigma = I: Ito's formula on
    # |X|^2 sums the pair terms gamma * (x_i - x_j) / (x_i - x_j) to
    # gamma * d * (d - 1), so d E|X_t|^2 / dt = -2 theta E|X_t|^2 + k with
    # k = d + gamma * d * (d - 1), and E|X_T|^2 = |x0|^2 + T * k at theta = 0,
    # e^{-2 theta T} |x0|^2 + k (1 - e^{-2 theta T}) / (2 theta) otherwise.
    # The scheme's bias shrinks with the step, to within 3 standard errors at n = 64.
    gamma, T = 1.0, 1.0
    x0 = np.linspace(-1.5, 1.5, d)
    drift = OrnsteinUhlenbeckDrift(theta, np.zeros(d)) if theta else ZeroDrift()
    system = ParticleSystem(
        d=d, gamma=uniform_gamma(d, gamma), drift=drift, diffusion=ConstantMatrixDiffusion(np.eye(d)), x0=x0
    )
    k = d + gamma * d * (d - 1)
    decay = np.exp(-2.0 * theta * T)
    exact = x0 @ x0 + T * k if theta == 0 else decay * (x0 @ x0) + k * (1.0 - decay) / (2.0 * theta)
    reports = [moment_profile(system, T, 2, 2000, n, base_seed=3, times=[T])[0] for n in (4, 16, 64)]
    errors = [abs(r.est_abs_moment - exact) for r in reports]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 3.0 * reports[2].abs_moment_std_err


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
