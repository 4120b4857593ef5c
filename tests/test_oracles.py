"""Oracles that do not depend on the scheme: exact laws of the paper's systems."""

import numpy as np
import pytest

from noncolliding import ConstantMatrixDiffusion, ParticleSystem, ZeroDrift, moment_profile, uniform_gamma


@pytest.mark.parametrize("d", [4, 8], ids=["rows_innermost", "particles_innermost"])
def test_dyson_second_moment(d):
    # uniform gamma, zero drift and sigma = I: Ito's formula on |X|^2 sums the
    # pair terms gamma * (x_i - x_j) / (x_i - x_j) to gamma * d * (d - 1), so
    # E|X_T|^2 = |x0|^2 + T * (d + gamma * d * (d - 1)) exactly.  The scheme's
    # bias shrinks with the step, to within 3 standard errors at n = 64.
    gamma, T = 1.0, 1.0
    x0 = np.linspace(-1.5, 1.5, d)
    system = ParticleSystem(
        d=d, gamma=uniform_gamma(d, gamma), drift=ZeroDrift(), diffusion=ConstantMatrixDiffusion(np.eye(d)), x0=x0
    )
    exact = x0 @ x0 + T * (d + gamma * d * (d - 1))
    reports = [moment_profile(system, T, 2, 2000, n, base_seed=3, times=[T])[0] for n in (4, 16, 64)]
    errors = [abs(r.est_abs_moment - exact) for r in reports]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 3.0 * reports[2].abs_moment_std_err
