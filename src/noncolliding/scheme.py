"""Time stepping for the particle system.

The semi-implicit scheme treats only the singular repulsion term implicitly:
one step from state X at time t_k solves

    xi_i = a_i + sum_{j != i} (gamma_ij * h) / (xi_i - xi_j),
    a_i  = X_i + b_i(X) * h + sum_j sigma_ij(X) * dW_j,

whose unique ordered solution becomes X(t_{k+1}).  The explicit scheme is
provided for contrast; it can and does leave the ordered chamber, which is
reported rather than raised.  Every path of either scheme, alone or in a
batch, is stepped by `_paths`; every Brownian increment is drawn by
`_increments`, from a counter-based generator, so that dyadic coarsening and
replication stay exactly reproducible.  `_in_workers` splits the rows of a
batch, or of a Monte Carlo chunk, among forked worker processes.
"""

from __future__ import annotations

import numbers
import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import implicit
from .implicit import ImplicitProblem
from .model import COORDINATEWISE_DRIFTS, ConstantMatrixDiffusion, DiagonalBoundedDiffusion
from .model import diffusion_eval, drift_eval

__all__ = [
    "TimeGrid",
    "BrownianPath",
    "PathResult",
    "generate_brownian",
    "coarsen",
    "step_semi_implicit",
    "step_explicit",
    "simulate",
    "simulate_batch",
]

SCHEMES = ("semi_implicit", "explicit")
# Least pair work that a forked worker process is worth: a row of d particles
# carries d(d - 1)/2 pair work, and a batch is stepped in min(usable CPUs,
# rows, work // SHARE) processes, at least 1 (`_in_workers`).  That is 100
# rows per share at d = 3, where on 2 cores two shares of 100 rows of the
# README study beat one process of 200 and two of 50 lose to one of 100.  A
# dense gamma gained from about 24-64 rows at d = 8, 4 at d = 32 and 2 at
# d = 128; a band gamma, O(d) work per row, gains later (README).
SHARE = 300


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with n steps; times are k*T/n, never accumulated."""

    T: float
    n: int

    def __post_init__(self):
        if not 0 < self.T < np.inf:
            raise ValueError("T must be finite and > 0")
        if not self.n >= 1:
            raise ValueError("n must be >= 1")

    @property
    def h(self):
        return self.T / self.n

    def times(self):
        return np.arange(self.n + 1) * (self.T / self.n)


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """Seeded fine-grid increments of a d-dimensional Brownian motion.

    increments[k, j] is W_j(t_{k+1}) - W_j(t_k) on the n_max-step grid;
    identical (seed, d, T, n_max) always reproduce identical arrays.
    """

    seed: int
    d: int
    T: float
    n_max: int
    increments: np.ndarray

    @property
    def n(self):
        return self.increments.shape[0]

    def terminal(self):
        return self.increments.sum(axis=0)


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def _generators(entropies):
    """One Philox generator per entry, keyed by SeedSequence(entropy) alone."""
    return [np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy))) for entropy in entropies]


def _increments(rngs, d, T, n, steps=None):
    """The next `steps` (default n) increments of the n-step grid on [0, T] from each generator.

    Returns shape (len(rngs), steps, d), laid out row-major, so any row is
    bit-reproducible on any platform and independently of the other rows, and
    successive draws from the same generators concatenate to one draw of all
    their steps, bit for bit.  This is the only place increments are drawn.
    """
    out = np.empty((len(rngs), n if steps is None else steps, d))
    for rng, row in zip(rngs, out):
        rng.standard_normal(out=row)
    out *= np.sqrt(T / n)
    return out


def generate_brownian(seed, d, T, n_max):
    """Draw the n_max x d increment array from a counter-based generator.

    The Philox bit generator is keyed by the seed alone, so a given
    (seed, d, T, n_max) is bit-reproducible and safe to regenerate
    independently in parallel workers.
    """
    if not _is_power_of_two(n_max):
        raise ValueError("n_max must be a power of 2")
    increments = _increments(_generators([seed]), d, T, n_max)[0]
    return BrownianPath(seed=int(seed), d=int(d), T=float(T), n_max=int(n_max), increments=increments)


def coarsen(path, factor):
    """Merge blocks of `factor` fine increments into single coarse increments."""
    if not _is_power_of_two(factor):
        raise ValueError("factor must be a power of 2")
    n = path.n
    if n % factor != 0:
        raise ValueError("factor must divide the current number of increments")
    if factor == 1:
        return path
    coarse = _coarsen(path.increments, factor)
    return BrownianPath(seed=path.seed, d=path.d, T=path.T, n_max=path.n_max, increments=coarse)


def _coarsen(increments, factor):
    # halve the step axis (-2) repeatedly, so coarsening by 2 twice equals
    # coarsening by 4 bit-for-bit, for one path or a batch alike
    while factor > 1:
        increments = increments[..., 0::2, :] + increments[..., 1::2, :]
        factor //= 2
    return increments


@dataclass(frozen=True, eq=False)
class PathResult:
    """States on the grid plus chamber diagnostics.

    For the semi-implicit scheme min_gap > 0 always and exited_chamber is
    False.  For the explicit scheme, stepping halts at the first ordering
    violation; states after the exit row are frozen at the last valid state.
    """

    states: np.ndarray
    min_gap: float
    exited_chamber: bool
    exit_step: int | None = None


def step_semi_implicit(system, state, h, dW):
    """One semi-implicit step; returns (new ordered state, solver result).

    Assembles one state's drift and noise and solves with `implicit.solve`;
    it is the reference the batched stepper is tested against.
    """
    state = np.asarray(state, dtype=float)
    if h <= 0:
        raise ValueError("h must be > 0")
    a = state + drift_eval(system.drift, state) * h + diffusion_eval(system.diffusion, state) @ dW
    result = implicit.solve(ImplicitProblem(a, system.gamma * h))
    return result.xi, result


def step_explicit(system, state, h, dW):
    """One explicit step, assembled from the coefficients directly as the reference
    the batched stepper is tested against; returns (new state, still-ordered flag)."""
    state = np.asarray(state, dtype=float)
    if h <= 0:
        raise ValueError("h must be > 0")
    b = implicit._interaction(system.gamma, state) + drift_eval(system.drift, state)
    new = state + b * h + diffusion_eval(system.diffusion, state) @ dW
    return new, bool(np.all(np.diff(new) > 0))


def simulate(system, grid, path, scheme="semi_implicit"):
    """Run the chosen scheme over the grid with the given increments, as a batch of one."""
    recorded, min_gap, exit_step = _paths(system, grid, path.increments[None], scheme, 1)
    k = int(exit_step[0])
    return PathResult(recorded[0], min_gap, exited_chamber=k > 0, exit_step=k or None)


# ---------------------------------------------------------------------------
# Batched Monte Carlo simulation


def replication_seed(base_seed, rep):
    """Deterministic per-replication seed derived from (base_seed, rep)."""
    return int(np.random.SeedSequence((int(base_seed), int(rep))).generate_state(1)[0])


def generate_brownian_batch(base_seed, reps, d, T, n_max):
    """Increments for replications [0, reps) keyed by (base_seed, rep); shape (reps, n_max, d)."""
    if not _is_power_of_two(n_max):
        raise ValueError("n_max must be a power of 2")
    return _increments(_generators([(int(base_seed), rep) for rep in range(reps)]), d, T, n_max)


def simulate_batch(system, grid, increments, record_stride=None, scheme="semi_implicit", x0=None):
    """Simulate many paths at once with the chosen scheme.

    increments has shape (m, n, d) with m >= 1 and n == grid.n.  Returns
    (recorded, min_gap) where recorded has shape (m, n // stride + 1, d)
    holding the states at every stride-th grid time (stride >= 1, default 1)
    and min_gap is the minimum over all paths, steps and adjacent pairs.  With
    start states x0 (shape (m, d), or (d,) for all paths; finite and strictly
    increasing, as `ParticleSystem.x0`), the increments are instead the next
    n <= grid.n steps of paths already at x0, and recorded starts with x0:
    stepping a path one block at a time gives the bits of stepping it at once.

    The m rows are split into contiguous shares by `_in_workers`: the first
    is stepped in this process and each other one in a forked worker.  A
    path gets the same bits in any batch, so the result does not depend on
    the number of shares.
    """
    m, stride = len(increments), 1 if record_stride is None else record_stride
    if m < 1:
        raise ValueError("increments must hold at least one path")
    if isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1:
        raise ValueError(f"record_stride must be at least 1 and an integer, got {record_stride!r}")
    if x0 is not None:
        x0 = np.broadcast_to(np.asarray(x0, dtype=float), (m, system.d))
        if not (np.isfinite(x0).all() and (np.diff(x0) > 0).all()):
            raise ValueError("x0 must be finite and strictly increasing")

    def run(a, b):
        recorded, min_gap, _ = _paths(system, grid, increments[a:b], scheme, stride, None if x0 is None else x0[a:b])
        return recorded, min_gap

    shares = _in_workers(run, 0, m, system.d)
    recorded = shares[0][0] if len(shares) == 1 else np.concatenate([rec for rec, _ in shares])
    return recorded, min(gap for _, gap in shares)


def _paths(system, grid, increments, scheme, stride, x0=None, k0=0, exit_step=None):
    """The one loop that steps a batch of paths; see `simulate_batch`.

    Also returns exit_step, the step at which each explicit path first left
    the ordered chamber (0 if it never did); such a path keeps its last
    ordered state.  A block of steps k0 + 1, ..., k0 + n continues from the
    states x0 and the exit steps of the steps before it.  The step h and the
    coefficients gamma * h always come from the whole grid.  The
    semi-implicit mode solves the m systems of a step together; the explicit
    mode steps only the paths still ordered.  Each call checks its gamma * h,
    or gamma when explicit, and chooses the kernel once (`implicit._Coupling`).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    m, n, d = increments.shape
    if k0 + n > grid.n or (x0 is None and n != grid.n):
        raise ValueError("increment count does not match grid")
    if d != system.d:
        raise ValueError("increment dimension does not match system")
    if n % stride != 0:
        raise ValueError("record_stride must divide n")
    h = grid.h
    coupling = implicit._Coupling(system.gamma * h if scheme == "semi_implicit" else system.gamma, d)
    x = np.broadcast_to(system.x0 if x0 is None else x0, (m, d)).copy()
    recorded = np.empty((m, n // stride + 1, d))
    recorded[:, 0] = x
    min_gap = float(np.min(np.diff(x, axis=1)))
    exit_step = np.zeros(m, dtype=int) if exit_step is None else exit_step.copy()
    live = np.flatnonzero(exit_step == 0)
    for k in range(n):
        if scheme == "semi_implicit":
            b, noise = _drift_and_noise(system, x, increments[:, k])
            x = implicit.solve_batch(x + b * h + noise, coupling)
        elif live.size:
            b, noise = _drift_and_noise(system, x[live], increments[live, k])
            new = x[live] + (coupling.interaction(x[live].T).T + b) * h + noise
            ordered = np.all(np.diff(new, axis=1) > 0, axis=1)
            x[live[ordered]] = new[ordered]
            exit_step[live[~ordered]] = k0 + k + 1
            live = live[ordered]
        min_gap = min(min_gap, float(np.min(np.diff(x, axis=1))))
        if (k + 1) % stride == 0:
            recorded[:, (k + 1) // stride] = x
    return recorded, min_gap, exit_step


def _cpus():
    """CPUs this process may run on, or 1 where the OS cannot say or cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _in_workers(run, start, stop, d):
    """[run(a, b) for each contiguous share [a, b) of rows [start, stop)], in row order.

    Rows hold d particles each.  There are min(_cpus(), rows, pair work //
    SHARE) shares, at least 1.  The first runs in this process; every other
    one runs in a forked worker that pickles its result, or the exception it
    raised, into a pipe and ends with `os._exit`.  The error of the first
    failing share in row order is raised here.  Before this function returns
    or raises, for any reason, every worker has been reaped: one still
    running is killed first.
    """
    rows = stop - start
    shares = max(1, min(_cpus(), rows, rows * (d * (d - 1) // 2) // SHARE))
    cuts = [start + rows * i // shares for i in range(shares + 1)]
    workers = []
    try:
        for a, b in zip(cuts[1:-1], cuts[2:]):
            workers.append(_fork(run, a, b))
        results = [run(cuts[0], cuts[1])]
        while workers:
            pid, fd = workers[0]
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            del workers[0]
            os.close(fd)
            os.waitpid(pid, 0)
            if not data:
                raise RuntimeError(f"worker {pid} ended without a result")
            status, result = pickle.loads(data)
            if status == "err":
                raise result
            results.append(result)
        return results
    finally:
        if workers:
            import signal  # only to stop workers of a share that failed or was interrupted

            for pid, fd in workers:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(fd)


def _fork(run, a, b):
    """(pid, read end of its pipe) of a worker process that sends ("ok", run(a, b)) or ("err", exception).

    In the worker `_cpus` gives 1, so a share, and any `simulate_batch` that
    its drift calls, never forks again.
    """
    global _cpus
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:  # the worker never leaves this block: no atexit handler or inherited buffer runs
            _cpus = lambda: 1  # noqa: E731
            os.close(read)
            try:
                data = pickle.dumps(("ok", run(a, b)), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                data = pickle.dumps(("err", exc), pickle.HIGHEST_PROTOCOL)
            with open(write, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write)
    return pid, read


def _drift_and_noise(system, x, dW):
    """Drift b(x) and noise sigma(x) dW for a batch of states x of shape (m, d).

    The closed drift and diffusion families act on the whole batch; custom
    evaluators, written for one state, go row by row.
    """
    if isinstance(system.drift, COORDINATEWISE_DRIFTS):
        b = drift_eval(system.drift, x)
    else:
        b = np.asarray([drift_eval(system.drift, row) for row in x])
    sigma = system.diffusion
    if isinstance(sigma, DiagonalBoundedDiffusion):
        noise = sigma.diagonal(x) * dW
    elif isinstance(sigma, ConstantMatrixDiffusion) and sigma.diagonal is not None:
        noise = sigma.diagonal * dW
    elif isinstance(sigma, ConstantMatrixDiffusion):
        # one matrix-vector product per row: a matrix-matrix product would
        # round a row differently depending on how many rows share the batch
        noise = (sigma.matrix @ dW[..., None])[..., 0]
    else:
        noise = np.asarray([diffusion_eval(sigma, row) @ w for row, w in zip(x, dW)])
    return b, noise
