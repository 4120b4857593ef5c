"""Unit tests for Brownian-path generation and the time-stepping schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncolliding import (
    BoundedSmoothDrift,
    ConstantMatrixDiffusion,
    CustomDrift,
    DiagonalBoundedDiffusion,
    OrnsteinUhlenbeckDrift,
    ParticleSystem,
    SolverOptions,
    TimeGrid,
    ZeroDrift,
    coarsen,
    generate_brownian,
    simulate,
    simulate_batch,
    step_explicit,
    step_semi_implicit,
    tridiagonal_gamma,
    uniform_gamma,
)
from noncolliding import implicit, model
from noncolliding.model import CustomDiffusion
from noncolliding.scheme import (
    SCHEMES,
    BrownianPath,
    _drift_and_noise,
    _generators,
    _increments,
    _paths,
    generate_brownian_batch,
    replication_seed,
)


def dyson(d, gamma, x0=None, drift=None, diffusion=None):
    return ParticleSystem(
        d=d,
        gamma=uniform_gamma(d, gamma),
        drift=drift or ZeroDrift(),
        diffusion=diffusion or ConstantMatrixDiffusion(np.eye(d)),
        x0=np.linspace(-1.0, 1.0, d) if x0 is None else np.asarray(x0, dtype=float),
    )


def step_loop(sys_, grid, increments, which):
    """One path stepped by `step_semi_implicit` or `step_explicit`: (states, exit step or None).

    An explicit path that leaves the ordered chamber keeps its last ordered state.
    """
    x, states = sys_.x0, [sys_.x0]
    for k, dW in enumerate(increments):
        if which == "explicit":
            new, ordered = step_explicit(sys_, x, grid.h, dW)
            if not ordered:
                return np.array(states + [x] * (grid.n - k)), k + 1
            x = new
        else:
            x, _ = step_semi_implicit(sys_, x, grid.h, dW)
        states.append(x)
    return np.array(states), None


# coefficient families for the batched stepper against the one-step functions:
# coordinate-wise drifts, the two closed diffusion families, custom
# evaluators that `_drift_and_noise` applies row by row, and a per-pair
# nearest-neighbour gamma, which the batched modes step through the neighbour
# kernel and `step_explicit` through the dense interaction sum
FAMILIES = {
    "ou_diagonal_bounded": lambda: dyson(
        3, 4.0,
        drift=OrnsteinUhlenbeckDrift(theta=0.3, mu=np.array([-1.0, 0.0, 1.0])),
        diffusion=DiagonalBoundedDiffusion(s0=0.8, s1=0.2),
    ),
    "bounded_smooth": lambda: dyson(3, 1.0, drift=BoundedSmoothDrift(beta=0.7)),
    "mixing_matrix": lambda: dyson(
        3, 0.4, diffusion=ConstantMatrixDiffusion(np.array([[1.1, 0.3, -0.2], [0.3, 0.9, 0.17], [-0.2, 0.17, 1.3]]))
    ),
    "custom": lambda: dyson(
        3, 1.0,
        drift=CustomDrift(evaluator=lambda x: -0.5 * x**3, declared_lipschitz=1.5),
        diffusion=CustomDiffusion(
            evaluator=lambda x: 0.8 * np.eye(3) + 0.1 * np.outer(np.tanh(x), np.ones(3)),
            declared_lipschitz=0.1, declared_sup_sq=1.0,
        ),
    ),
    "nearest_neighbour": lambda: ParticleSystem(
        d=6,
        gamma=tridiagonal_gamma(6, [0.5, 1.0, 2.0, 1.0, 0.25]),
        drift=OrnsteinUhlenbeckDrift(theta=0.4, mu=np.linspace(-1.0, 1.0, 6)),
        diffusion=DiagonalBoundedDiffusion(s0=0.8, s1=0.2),
        x0=np.linspace(-1.5, 1.5, 6),
    ),
}


class TestTimeGrid:
    def test_h_and_times(self):
        g = TimeGrid(1.0, 4)
        assert g.h == 0.25
        assert np.allclose(g.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    @pytest.mark.parametrize("T", [float("nan"), float("inf")])
    def test_rejects_non_finite_horizon(self, T):
        with pytest.raises(ValueError, match="T must be finite and > 0"):
            TimeGrid(T, 4)


class TestBrownian:
    def test_reproducible(self):
        p1 = generate_brownian(42, 3, 1.0, 64)
        p2 = generate_brownian(42, 3, 1.0, 64)
        assert np.array_equal(p1.increments, p2.increments)

    def test_distinct_seeds_differ(self):
        p1 = generate_brownian(1, 2, 1.0, 32)
        p2 = generate_brownian(2, 2, 1.0, 32)
        assert not np.array_equal(p1.increments, p2.increments)

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            generate_brownian(0, 2, 1.0, 48)

    def test_variance_scaling(self):
        p = generate_brownian(7, 1, 2.0, 4096)
        # Var of each increment is T/n = 2/4096
        assert p.increments.var() == pytest.approx(2.0 / 4096, rel=0.1)

    def test_terminal_is_sum(self):
        p = generate_brownian(5, 2, 1.0, 16)
        assert np.allclose(p.terminal(), p.increments.sum(axis=0))


class TestCoarsen:
    def test_sums_preserved(self):
        p = generate_brownian(9, 2, 1.0, 64)
        c = coarsen(p, 8)
        assert c.n == 8
        assert np.allclose(c.terminal(), p.terminal(), atol=1e-14)

    def test_exactly_associative(self):
        p = generate_brownian(9, 3, 1.0, 64)
        twice = coarsen(coarsen(p, 2), 2)
        once = coarsen(p, 4)
        assert np.array_equal(twice.increments, once.increments)

    def test_factor_one_identity(self):
        p = generate_brownian(9, 2, 1.0, 16)
        assert coarsen(p, 1) is p

    def test_validation(self):
        p = generate_brownian(9, 2, 1.0, 16)
        with pytest.raises(ValueError):
            coarsen(p, 3)
        with pytest.raises(ValueError):
            coarsen(p, 32)


class TestSteps:
    def test_semi_implicit_closed_form(self):
        # x = (-1, 1), zero drift/noise, gamma*h = 1: solve xi = x + 1/(xi_i - xi_j)
        # gap g solves g = 2 + 2/g => g = 1 + sqrt(3)... with a = (-1, 1), c = 1:
        # dgap = 2, gap = (2 + sqrt(4 + 8))/2 = 1 + sqrt(3); xi = -+(1+sqrt(3))/2
        sys_ = dyson(2, 1.0, x0=[-1.0, 1.0])
        xi, result = step_semi_implicit(sys_, sys_.x0, h=1.0, dW=np.zeros(2))
        want = (1.0 + np.sqrt(3.0)) / 2.0
        assert np.allclose(xi, [-want, want], atol=1e-12)
        assert result.residual_norm <= 1e-10

    def test_semi_implicit_symmetric_unit(self):
        # x = (-0.5, 0.5), c = h*gamma = 0.5: gap solves g = 1 + 1/g => g = (1+sqrt(5))/2? no:
        # dgap=1, c=0.5: g = (1 + sqrt(1 + 4))/2 = (1+sqrt(5))/2
        sys_ = dyson(2, 0.5, x0=[-0.5, 0.5])
        xi, _ = step_semi_implicit(sys_, sys_.x0, h=1.0, dW=np.zeros(2))
        want = (1.0 + np.sqrt(5.0)) / 4.0
        assert np.allclose(xi, [-want, want], atol=1e-12)

    def test_semi_implicit_rejects_bad_h(self):
        sys_ = dyson(2, 1.0)
        with pytest.raises(ValueError):
            step_semi_implicit(sys_, sys_.x0, h=0.0, dW=np.zeros(2))
        with pytest.raises(ValueError):
            step_explicit(sys_, sys_.x0, h=-0.5, dW=np.zeros(2))

    def test_explicit_closed_form(self):
        # x = (-1, 1): interaction drift is (-gamma/2, gamma/2); h=0.5, gamma=1
        sys_ = dyson(2, 1.0, x0=[-1.0, 1.0])
        new, ordered = step_explicit(sys_, sys_.x0, h=0.5, dW=np.zeros(2))
        assert np.allclose(new, [-1.25, 1.25], atol=1e-14)
        assert ordered

    def test_explicit_can_cross(self):
        # a large inward noise kick swaps the particles
        sys_ = dyson(2, 0.01, x0=[-0.1, 0.1])
        new, ordered = step_explicit(sys_, sys_.x0, h=0.01, dW=np.array([1.0, -1.0]))
        assert not ordered


class TestSimulate:
    def test_semi_implicit_stays_ordered(self):
        sys_ = dyson(4, 2.0)
        grid = TimeGrid(1.0, 64)
        path = generate_brownian(3, 4, 1.0, 64)
        res = simulate(sys_, grid, path)
        assert res.min_gap > 0
        assert not res.exited_chamber
        assert res.states.shape == (65, 4)

    def test_explicit_freezes_after_exit(self):
        # tiny repulsion, big steps: exits are common with this seed
        sys_ = dyson(3, 0.01, x0=[-0.05, 0.0, 0.05])
        grid = TimeGrid(1.0, 4)
        exited = None
        for seed in range(20):
            res = simulate(sys_, grid, generate_brownian(seed, 3, 1.0, 4), scheme="explicit")
            if res.exited_chamber:
                exited = res
                break
        assert exited is not None
        k = exited.exit_step
        assert k is not None and 1 <= k <= 4
        # rows at and after the exit step hold the last valid state
        for row in range(k, 5):
            assert np.array_equal(exited.states[row], exited.states[k - 1])

    def test_explicit_matches_step_loop(self):
        sys_ = dyson(3, 0.01, x0=[-0.05, 0.0, 0.05])
        grid = TimeGrid(1.0, 8)
        exits = 0
        for seed in range(20):
            path = generate_brownian(seed, 3, 1.0, 8)
            res = simulate(sys_, grid, path, scheme="explicit")
            states, exit_step = step_loop(sys_, grid, path.increments, "explicit")
            assert res.exit_step == exit_step
            assert res.exited_chamber == (exit_step is not None)
            assert np.array_equal(res.states, states)
            exits += res.exited_chamber
        assert 0 < exits < 20

    def test_mismatched_path_rejected(self):
        sys_ = dyson(2, 1.0)
        with pytest.raises(ValueError):
            simulate(sys_, TimeGrid(1.0, 8), generate_brownian(0, 2, 1.0, 16))
        with pytest.raises(ValueError):
            simulate(sys_, TimeGrid(1.0, 16), generate_brownian(0, 3, 1.0, 16))

    def test_unknown_scheme_rejected(self):
        sys_ = dyson(2, 1.0)
        with pytest.raises(ValueError):
            simulate(sys_, TimeGrid(1.0, 16), generate_brownian(0, 2, 1.0, 16), scheme="milstein")

    def test_deterministic(self):
        sys_ = dyson(3, 4.0)
        grid = TimeGrid(1.0, 32)
        r1 = simulate(sys_, grid, generate_brownian(12, 3, 1.0, 32))
        r2 = simulate(sys_, grid, generate_brownian(12, 3, 1.0, 32))
        assert np.array_equal(r1.states, r2.states)


class TestGenerators:
    def test_front_ends_share_one_stream(self):
        from noncolliding.analysis import _batch_increments

        batch = generate_brownian_batch(13, 9, 3, 2.0, 16)
        part = _batch_increments(13, 4, 9, 3, 2.0, 16)
        for i in range(4, 9):
            assert np.array_equal(batch[i], part[i - 4])
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21)))
        direct = rng.standard_normal((16, 3)) * np.sqrt(2.0 / 16)
        assert np.array_equal(generate_brownian(21, 3, 2.0, 16).increments, direct)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**63 - 1), st.integers(0, 10**6), st.integers(1, 4), st.integers(0, 10), st.data())
    def test_block_draws_equal_one_shot(self, seed, rep, d, log_n, data):
        # a replication's live generator, drawn B steps at a time for any
        # power-of-two B dividing n, gives the bits of one draw of all n steps
        from noncolliding.analysis import _batch_increments

        n, block = 2**log_n, 2 ** data.draw(st.integers(0, log_n))
        one_shot = _increments(_generators([(seed, rep)]), d, 2.0, n)[0]
        rngs = _generators([(seed, rep)])
        blocks = [_batch_increments(seed, rep, rep + 1, d, 2.0, n, rngs, block)[0] for _ in range(n // block)]
        assert np.array_equal(np.concatenate(blocks), one_shot)


class TestBatch:
    def test_replication_seed_deterministic(self):
        assert replication_seed(5, 0) == replication_seed(5, 0)
        assert replication_seed(5, 0) != replication_seed(5, 1)

    def test_batch_matches_scalar_identity_diffusion(self):
        sys_ = dyson(3, 4.0)
        grid = TimeGrid(1.0, 32)
        inc = generate_brownian_batch(7, 5, 3, 1.0, 32)
        rec, min_gap = simulate_batch(sys_, grid, inc)
        assert min_gap > 0
        # batch increments use SeedSequence((base, rep)) directly
        for m in range(5):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((7, m))))
            assert np.array_equal(inc[m], rng.standard_normal((32, 3)) * np.sqrt(1.0 / 32))

    @pytest.mark.parametrize("which", SCHEMES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_batch_matches_scalar_paths(self, family, which):
        sys_ = FAMILIES[family]()
        grid = TimeGrid(1.0, 16)
        inc = generate_brownian_batch(11, 4, sys_.d, 1.0, 16)
        rec, _ = simulate_batch(sys_, grid, inc, scheme=which)
        for m in range(4):
            assert np.array_equal(rec[m], step_loop(sys_, grid, inc[m], which)[0])

    @pytest.mark.parametrize("which", SCHEMES)
    def test_rows_do_not_depend_on_batch(self, which):
        # a general constant matrix mixes the noise of the coordinates
        sys_ = FAMILIES["mixing_matrix"]()
        grid = TimeGrid(1.0, 8)
        inc = generate_brownian_batch(5, 40, 3, 1.0, 8)
        rec, _ = simulate_batch(sys_, grid, inc, scheme=which)
        for m in range(40):
            path = BrownianPath(seed=0, d=3, T=1.0, n_max=8, increments=inc[m])
            alone = simulate(sys_, grid, path, which).states
            assert np.array_equal(alone, rec[m])
            assert np.array_equal(alone, step_loop(sys_, grid, inc[m], which)[0])

    @pytest.mark.parametrize("d, m", [(3, 1000), (5, 20), (128, 16), (1024, 16)])
    def test_diagonal_matrix_noise_has_the_product_bits(self, d, m):
        # a diagonal constant matrix takes the elementwise path; its noise is
        # byte for byte the matrix product's, and a full matrix keeps the product
        rng = np.random.default_rng(d)
        dW = rng.normal(size=(m, d))
        for matrix in (np.eye(d), np.diag(rng.uniform(0.1, 3.0, d))):
            sys_ = dyson(d, 1.0, diffusion=ConstantMatrixDiffusion(matrix))
            assert sys_.diffusion.diagonal is not None
            _, noise = _drift_and_noise(sys_, np.broadcast_to(sys_.x0, (m, d)), dW)
            assert noise.tobytes() == (matrix @ dW[..., None])[..., 0].tobytes()
        assert ConstantMatrixDiffusion(np.eye(d) + np.eye(d, k=1)).diagonal is None

    def test_coefficients_are_checked_and_classified_once_per_run(self, monkeypatch):
        # one 32-step run chooses the kernel of its gamma * h once, not at every step
        calls = []
        real = model.is_tridiagonal

        def counting(matrix):
            calls.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(model, "is_tridiagonal", counting)
        monkeypatch.setattr(implicit, "is_tridiagonal", counting)
        sys_ = ParticleSystem(
            d=5, gamma=tridiagonal_gamma(5, 1.0), drift=ZeroDrift(),
            diffusion=ConstantMatrixDiffusion(np.eye(5)), x0=np.linspace(-2.0, 2.0, 5),
        )
        inc = generate_brownian_batch(6, 3, 5, 1.0, 32)
        _, min_gap = simulate_batch(sys_, TimeGrid(1.0, 32), inc)
        assert min_gap > 0
        assert calls == [(5, 5)]

    def test_unknown_scheme_rejected(self):
        sys_ = dyson(2, 1.0)
        with pytest.raises(ValueError):
            inc = generate_brownian_batch(0, 1, 2, 1.0, 4)
            simulate_batch(sys_, TimeGrid(1.0, 4), inc, scheme="milstein")

    def test_record_stride(self):
        sys_ = dyson(3, 4.0)
        grid = TimeGrid(1.0, 32)
        inc = generate_brownian_batch(3, 2, 3, 1.0, 32)
        full, _ = simulate_batch(sys_, grid, inc)
        strided, _ = simulate_batch(sys_, grid, inc, record_stride=8)
        assert strided.shape == (2, 5, 3)
        assert np.array_equal(strided, full[:, ::8])

    def test_stride_must_divide(self):
        sys_ = dyson(3, 4.0)
        inc = generate_brownian_batch(3, 1, 3, 1.0, 32)
        with pytest.raises(ValueError):
            simulate_batch(sys_, TimeGrid(1.0, 32), inc, record_stride=5)

    @pytest.mark.parametrize("which", ["semi_implicit", "explicit"])
    def test_blocks_continue_one_run(self, which):
        # weak repulsion on a coarse grid, so explicit paths exit inside blocks
        sys_ = dyson(3, 0.3, x0=[-0.5, 0.0, 0.5])
        grid = TimeGrid(1.0, 16)
        inc = generate_brownian_batch(4, 30, 3, 1.0, 16)
        whole, whole_gap, whole_exit = _paths(sys_, grid, inc, which, 1)
        x, k, exit_step, parts, gaps = np.broadcast_to(sys_.x0, (30, 3)), 0, None, [], []
        for b in (5, 8, 3):
            rec, gap, exit_step = _paths(sys_, grid, inc[:, k : k + b], which, 1, x, k, exit_step)
            assert np.array_equal(rec[:, 0], x)
            x, k = rec[:, -1], k + b
            parts.append(rec[:, 1:])
            gaps.append(gap)
        assert np.array_equal(np.concatenate([whole[:, :1]] + parts, axis=1), whole)
        assert min(gaps) == whole_gap
        assert np.array_equal(exit_step, whole_exit)
        assert np.count_nonzero(whole_exit) > 0 if which == "explicit" else whole_gap > 0

    def test_short_increments_need_start_states(self):
        sys_ = dyson(3, 4.0)
        grid = TimeGrid(1.0, 32)
        inc = generate_brownian_batch(3, 2, 3, 1.0, 16)
        with pytest.raises(ValueError, match="does not match grid"):
            simulate_batch(sys_, grid, inc)
        rec, _ = simulate_batch(sys_, grid, inc, x0=sys_.x0)
        assert rec.shape == (2, 17, 3)
        with pytest.raises(ValueError, match="does not match grid"):
            simulate_batch(sys_, TimeGrid(1.0, 8), inc, x0=sys_.x0)


class TestOracles:
    @pytest.mark.parametrize("kind", ["uniform", "tridiagonal"])
    def test_centre_of_mass_follows_mean_brownian_motion(self, kind):
        # symmetric gamma makes the interaction sum to zero, so with zero drift
        # and sigma = I the particles' mean is mean(x0) + mean(W_t) exactly;
        # a step may move it by at most the Newton tolerance
        d, n, m = 16, 64, 10
        gamma = uniform_gamma(d, 1.0) if kind == "uniform" else tridiagonal_gamma(d, 1.0)
        x0 = np.linspace(-2.0 * np.sqrt(d), 2.0 * np.sqrt(d), d)
        sys_ = ParticleSystem(d=d, gamma=gamma, drift=ZeroDrift(), diffusion=ConstantMatrixDiffusion(np.eye(d)), x0=x0)
        inc = generate_brownian_batch(8, m, d, 1.0, n)
        rec, min_gap = simulate_batch(sys_, TimeGrid(1.0, n), inc)
        brownian = np.concatenate([np.zeros((m, 1, d)), np.cumsum(inc, axis=1)], axis=1)
        error = np.abs(rec.mean(axis=2) - (np.mean(x0) + brownian.mean(axis=2)))
        assert min_gap > 0
        assert np.max(error) <= n * SolverOptions().tol

    def test_nearest_neighbour_paths_at_d1024(self):
        # the neighbour kernel keeps d = 1024 cheap; the same centre-of-mass oracle
        d, n, m = 1024, 16, 4
        x0 = np.linspace(-2.0 * np.sqrt(d), 2.0 * np.sqrt(d), d)
        sys_ = ParticleSystem(
            d=d, gamma=tridiagonal_gamma(d, 1.0), drift=ZeroDrift(),
            diffusion=ConstantMatrixDiffusion(np.eye(d)), x0=x0,
        )
        inc = generate_brownian_batch(9, m, d, 1.0, n)
        rec, min_gap = simulate_batch(sys_, TimeGrid(1.0, n), inc)
        brownian = np.concatenate([np.zeros((m, 1, d)), np.cumsum(inc, axis=1)], axis=1)
        error = np.abs(rec.mean(axis=2) - (np.mean(x0) + brownian.mean(axis=2)))
        assert min_gap > 0 and np.all(np.diff(rec, axis=2) > 0)
        assert np.max(error) <= n * SolverOptions().tol
