"""Byte guards: the stdout of every subcommand, and continuation results,
against golden files.

The config has more replications than one `analysis.CHUNK` of rows and more
fine steps than one time block, and its step count n = 100 is not a multiple
of the block, so the golden bytes pin the chunk and block loops of every
Monte Carlo estimate.  The `_precision2` cases print with `output.precision: 2`,
which applies to the numbers of simulate, converge, moments and collide but
not to their integer columns (ids, step indices, counts), nor to `check`; at
two digits a step index or count would otherwise read like `1.3e+02`.
`simulate_nn` runs a d = 5 nearest-neighbour system instead, so it pins the
bits of the neighbour kernel and the tridiagonal Hessian solve.
Regenerate a file only for a change that is meant to move the numbers:

    PYTHONPATH=src python -m noncolliding converge --config CFG > tests/golden/converge.csv

`homotopy.txt` holds the bits of 16-step continuation on fixed random
problems, or the error it raises: criterion-2 problems, "wide" problems whose
solves reject steps, and "extreme" ones near the limit of doubles, where the
Newton solve that ends continuation stalls and is polished or fails, or where
continuation collapses.  Regenerate it with

    PYTHONPATH=src python tests/test_golden.py > tests/golden/homotopy.txt
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

from noncolliding import ImplicitProblem, NonConvergenceError, SolverOptions
from noncolliding.cli import main
from noncolliding.implicit import _homotopy
from noncolliding.model import uniform_gamma

GOLDEN = Path(__file__).parent / "golden"

SYSTEM = """
system:
  d: 3
  gamma:
    uniform: 1.5
  drift:
    kind: ornstein_uhlenbeck
    theta: 0.5
    mu: [-1.0, 0.0, 1.0]
  diffusion:
    kind: constant_matrix
    matrix: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
  x0:
    linspace: [-0.6, 0.6]
"""

# nearest-neighbour gamma at d >= 3: the neighbour kernel and tridiagonal solve
SYSTEM_NN = """
system:
  d: 5
  gamma:
    tridiagonal: 0.8
  drift:
    kind: ornstein_uhlenbeck
    theta: 0.5
    mu: [-2.0, -1.0, 0.0, 1.0, 2.0]
  diffusion:
    kind: constant_matrix
    matrix: [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
  x0:
    linspace: [-1.0, 1.0]
"""

RUN = """run:
  T: 1.0
  n: 100
  levels: [4, 8, 16]
  ref_level: 256
  paths: 1100
  seed: 17
  error_mode: {mode}
  p: 1.0
"""

PRECISION_2 = "output:\n  precision: 2\n"
SIMULATE = ["simulate", "--n", "128", "--paths", "2"]


def config(mode="grid_sup_Lp", extra="", system=SYSTEM):
    """Config text: the system, the run with this error_mode, then extra."""
    return system + RUN.format(mode=mode) + extra


# name: (argv, config text or None for a command without one, exit code)
CASES = {
    "converge": (["converge"], config(), 0),
    "converge_terminal": (["converge"], config("terminal_L2"), 0),
    "moments": (["moments", "--times", "11"], config(), 0),
    "collide": (["collide"], config(), 0),
    "collide_precision2": (["collide"], config(extra=PRECISION_2), 0),
    "simulate": (SIMULATE, config(), 0),
    "simulate_explicit": (SIMULATE + ["--scheme", "explicit"], config(), 0),
    "simulate_precision2": (SIMULATE, config(extra=PRECISION_2), 0),
    "simulate_nn": (SIMULATE, config(system=SYSTEM_NN), 0),
    # 3 * gamma / (d * sigma_sup_sq) = 1.5 < 2: the condition fails
    "check": (["check", "--p", "1.1"], config(), 1),
    "check_precision2": (["check", "--p", "1.1"], config(extra=PRECISION_2), 1),
    "solve": (["solve", "--a", "0,3,7", "--c-uniform", "2"], None, 0),
    "inequalities_full": (["inequalities", "--kind", "full", "--d", "4", "--p", "1", "--count", "500"], None, 0),
    "inequalities_nn": (["inequalities", "--kind", "nn", "--d", "3", "--p", "1", "--count", "500"], None, 0),
    "chi_bar": (["chi-bar", "--d", "3", "--p", "1"], None, 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, tmp_path, capsys):
    argv, text, code = CASES[name]
    if text is not None:
        cfg = tmp_path / "golden.yaml"
        cfg.write_text(text)
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.csv").read_text()


@pytest.mark.parametrize("name", ["simulate", "converge"])
def test_out_file_holds_the_stdout_bytes(name, tmp_path, capsys):
    # stdout and --out are two write paths of the same lines
    argv, text, code = CASES[name]
    cfg = tmp_path / "golden.yaml"
    cfg.write_text(text)
    argv = argv + ["--config", str(cfg)]
    assert main(argv) == code
    stdout = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == code
    assert (tmp_path / "out.csv").read_bytes() == stdout.encode()


def test_solve_full_matrix_matches_golden(capsys):
    # the uniform c of the "solve" case, given entry by entry
    assert main(["solve", "--a", "0,3,7", "--c-full", "0,2,2;2,0,2;2,2,0"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "solve.csv").read_text()


def kernel_settings():
    """Environment variables that make NumPy and OpenBLAS run the kernels of
    other CPUs on this one, by name; None where this machine cannot emulate
    them: OpenBLAS's Haswell (AVX2) and Prescott (SSE3) kernels on x86-64,
    and NumPy without the AVX-512 targets it dispatches to here."""
    features = _multiarray_umath.__cpu_features__
    avx512 = [t for t in _multiarray_umath.__cpu_dispatch__ if t == "X86_V4" or t.startswith("AVX512")]
    avx512 = [t for t in avx512 if features.get(t)]
    x86 = platform.machine().lower() in ("x86_64", "amd64")
    return {
        "openblas_haswell": {"OPENBLAS_CORETYPE": "Haswell"} if x86 and features.get("AVX2") else None,
        "openblas_prescott": {"OPENBLAS_CORETYPE": "Prescott"} if x86 else None,
        "numpy_without_avx512": {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)} if avx512 else None,
    }


@pytest.mark.parametrize("setting", sorted(kernel_settings()))
@pytest.mark.parametrize("name", ["converge", "converge_terminal", "simulate"])
def test_stdout_does_not_depend_on_the_kernels(name, setting, tmp_path):
    """The golden bytes of a run under another CPU's kernels, in a child
    process, which alone sees the variables.

    Dense Hessians at d <= 3 and the rate fit use elementwise arithmetic
    only, whose IEEE rounding no kernel changes.  `moments` is left out: only
    its `bound` column moves, through `np.exp`, whose SIMD loops round
    differently; so is `homotopy.txt`, which solves dense Hessians at
    4 <= d <= 8 by LAPACK's LU in OpenBLAS's kernels.
    """
    variables = kernel_settings()[setting]
    if variables is None:
        pytest.skip(f"{setting} cannot be emulated on this machine")
    argv, text, code = CASES[name]
    cfg = tmp_path / "golden.yaml"
    cfg.write_text(text)
    path = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "noncolliding", *argv, "--config", str(cfg)],
        env=dict(os.environ, PYTHONPATH=path, **variables), capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == code, child.stderr
    assert child.stdout == (GOLDEN / f"{name}.csv").read_text()


def homotopy_problems():
    """(group, index, problem) for the continuation guard, from fixed seeds."""
    groups = {
        # (seed, count, offsets a ~ scale * U(-1, 1), uniform c)
        "criterion2": (2024, 200, lambda rng: 5.0, lambda rng: rng.uniform(1e-4, 10.0)),
        "wide": (7, 200, lambda rng: 50.0, lambda rng: 10.0 ** rng.uniform(-6.0, 1.0)),
        "extreme": (11, 20, lambda rng: 10.0 ** rng.uniform(2.0, 8.0), lambda rng: 10.0 ** rng.uniform(-8.0, 0.0)),
    }
    for group, (seed, count, scale, coefficient) in groups.items():
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for index in range(count):
            d = int(rng.integers(2, 9))
            a = rng.uniform(-1.0, 1.0, d) * scale(rng)
            yield group, index, ImplicitProblem(a, uniform_gamma(d, coefficient(rng)))


def homotopy_lines():
    opts = SolverOptions(method="homotopy", homotopy_steps=16)
    for group, index, problem in homotopy_problems():
        try:
            xi, iterations = _homotopy(problem, opts)
        except NonConvergenceError as exc:
            residual = "None" if exc.residual is None else float(exc.residual).hex()
            yield f"{group} {index} error {exc.method} {exc.iterations} {residual} {exc}\n"
            continue
        yield f"{group} {index} ok {iterations} {' '.join(float(v).hex() for v in xi)}\n"


def test_homotopy_matches_golden():
    assert "".join(homotopy_lines()) == (GOLDEN / "homotopy.txt").read_text()


if __name__ == "__main__":
    sys.stdout.writelines(homotopy_lines())
