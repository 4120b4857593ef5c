"""The four benchmark workloads.

Each workload does its set-up in the constructor (config parse and system
build, or input generation), `run()` performs one unit of fixed work and
returns its output, and `check(output)` returns (attempted, failed) for the
operations of that unit.  README.md in this directory says why each exists.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from noncolliding import NonConvergenceError, cli, config, implicit, model, scheme

import checks

HERE = Path(__file__).resolve().parent

# The CLI workloads are compared with values recorded for these input seeds;
# the benchmark seed is folded onto them (record.py writes the values).
REFERENCE_SEEDS = 32

README_CONFIG = """\
system:
  d: 3
  gamma:
    uniform: 4.0
  drift:
    kind: zero
  diffusion:
    kind: constant_matrix
    matrix: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
  x0:
    linspace: [-1.0, 1.0]
run:
  scheme: semi_implicit
  T: 1.0
  n: {n}
  levels: [16, 32, 64]
  ref_level: 1024
  paths: {paths}
  seed: {seed}
  error_mode: grid_sup_Lp
  p: 1.0
output:
  path: out.csv
  format: csv
  precision: 17
"""


def load_reference(workload, input_seed):
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload][str(input_seed)]


class _CliWorkload:
    """`noncolliding <command>` run in-process on a generated YAML config."""

    command = ""
    n = 100
    paths = 1

    def __init__(self, seed, workdir, reference=True):
        self.input_seed = seed % REFERENCE_SEEDS
        text = README_CONFIG.format(n=self.n, paths=self.paths, seed=self.input_seed)
        stem = Path(workdir) / self.name
        self.config_path = stem.with_suffix(".yaml")
        self.out_path = stem.with_suffix(".csv")
        self.config_path.write_text(text, encoding="utf-8")
        # the set-up a user pays before the first command: parse and build
        self.system = config.build_system(config.parse_config(text).system)
        self.reference = load_reference(self.name, self.input_seed) if reference else None

    def run(self):
        return cli.main([self.command, "--config", str(self.config_path), "--out", str(self.out_path)])

    def output_text(self, code):
        return self.out_path.read_text(encoding="utf-8") if code == 0 else ""


class StudyD3(_CliWorkload):
    name = "study_d3"
    command = "converge"
    paths = 1000

    def check(self, code):
        return 1, int(not checks.check_converge_csv(self.output_text(code), self.reference))


class ScalarPaths(_CliWorkload):
    name = "scalar_paths"
    command = "simulate"
    n = 128
    paths = 20

    def check(self, code):
        text = self.output_text(code)
        return self.paths, checks.check_paths_csv(text, self.paths, self.n, self.system.d, self.reference)


class LargeD:
    """Dyson (uniform gamma = 1) and nearest-neighbour gamma = 1 at d = 128."""

    name = "large_d"
    d = 128
    n = 64
    paths = 16

    def __init__(self, seed, workdir):
        self.seed = seed
        d = self.d
        # start spread like the semicircle of uniform gamma = 1 at T = 1
        x0 = np.linspace(-2.0 * np.sqrt(d), 2.0 * np.sqrt(d), d)
        self.systems = [
            model.ParticleSystem(
                d=d, gamma=gamma, drift=model.ZeroDrift(),
                diffusion=model.ConstantMatrixDiffusion(np.eye(d)), x0=x0,
            )
            for gamma in (model.uniform_gamma(d, 1.0), model.tridiagonal_gamma(d, 1.0))
        ]
        self.grid = scheme.TimeGrid(1.0, self.n)

    def run(self):
        out = []
        for i, system in enumerate(self.systems):
            inc = scheme.generate_brownian_batch(2 * self.seed + i, self.paths, self.d, 1.0, self.n)
            states, _ = scheme.simulate_batch(system, self.grid, inc)
            out.append((system, inc, states))
        return out

    def check(self, output):
        failed = 0
        for system, inc, states in output:
            bad = checks.check_ordered_paths(states) | checks.check_centre_of_mass(states, system.x0, inc)
            failed += int(bad.sum())
        return 2 * self.paths, failed


class SolverSweep:
    """Criterion 2's distribution, each problem solved by default and by continuation."""

    name = "solver_sweep"
    problems = 1000
    homotopy = implicit.SolverOptions(method="homotopy", homotopy_steps=16)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.batch = []
        for _ in range(self.problems):
            d = int(rng.integers(2, 9))
            a = rng.uniform(-5.0, 5.0, d)
            c = model.uniform_gamma(d, rng.uniform(1e-4, 10.0))
            self.batch.append(implicit.ImplicitProblem(a, c))

    def _timed(self, key, problem, opts):
        start = time.perf_counter()
        try:
            return implicit.solve(problem, opts).xi
        except NonConvergenceError:
            return None
        finally:
            self.latency[key].append(time.perf_counter() - start)

    def run(self):
        # per-call latencies of this unit, as a caller of `implicit.solve` sees them
        self.latency = {"default": [], "homotopy": []}
        return [
            (self._timed("default", p, None), self._timed("homotopy", p, self.homotopy))
            for p in self.batch
        ]

    def check(self, output):
        failed = 0
        for problem, (xi_d, xi_h) in zip(self.batch, output):
            if xi_d is None or xi_h is None:
                failed += (xi_d is None) + (xi_h is None)
                continue
            r = float(np.max(np.abs(implicit.residual(problem, xi_d))))
            failed += checks.check_solve_pair(r, xi_d, xi_h)
        return 2 * self.problems, failed


WORKLOADS = {w.name: w for w in (StudyD3, LargeD, SolverSweep, ScalarPaths)}
