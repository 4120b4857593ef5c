"""Byte guard: the stdout of the Monte Carlo subcommands against golden files.

The config has more replications than one `analysis.CHUNK` of rows and more
fine steps than one time block, and its step count n = 100 is not a multiple
of the block, so the golden bytes pin the chunk and block loops of every
Monte Carlo estimate.  Regenerate a file only for a change that is meant to
move the numbers:

    PYTHONPATH=src python -m noncolliding converge --config CFG > tests/golden/converge.csv
"""

from pathlib import Path

import pytest

from noncolliding.cli import main

GOLDEN = Path(__file__).parent / "golden"

CONFIG = """
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
run:
  T: 1.0
  n: 100
  levels: [4, 8, 16]
  ref_level: 256
  paths: 1100
  seed: 17
  error_mode: {mode}
  p: 1.0
"""

CASES = {
    "converge": (["converge"], "grid_sup_Lp"),
    "converge_terminal": (["converge"], "terminal_L2"),
    "moments": (["moments", "--times", "11"], "grid_sup_Lp"),
    "collide": (["collide"], "grid_sup_Lp"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, tmp_path, capsys):
    argv, mode = CASES[name]
    cfg = tmp_path / "golden.yaml"
    cfg.write_text(CONFIG.format(mode=mode))
    assert main(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.csv").read_text()
