"""The package's public surface: what `__all__` and the top level promise exists.

Each question has one public entry point; the names deleted in favour of
another stay deleted (a study's per-level errors are `run_study`'s, a moment
at one time is `moment_profile(..., times=[t])[0]`, and γ's structure is
asked of `model.is_uniform` / `model.is_tridiagonal`).
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noncolliding
from noncolliding import ConditionReport, ParticleSystem, analysis, chi_bar, implicit, tridiagonal_gamma, uniform_gamma
from noncolliding.implicit import solve_batch

INIT = Path(noncolliding.__file__)


def reexports():
    # (module, name) for every `from .module import name` of the package's __init__
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def modules_with_all():
    found = [importlib.import_module(f"noncolliding.{info.name}") for info in pkgutil.iter_modules(noncolliding.__path__)]
    return [module for module in found if hasattr(module, "__all__")]


def test_every_name_in_all_resolves():
    missing = [f"{m.__name__}.{name}" for m in modules_with_all() for name in m.__all__ if not hasattr(m, name)]
    assert missing == []


def test_every_reexport_is_in_its_modules_all():
    pairs = reexports()
    assert pairs
    stray = [
        f"{module}.{name}"
        for module, name in pairs
        if name not in getattr(importlib.import_module(f"noncolliding.{module}"), "__all__", ())
    ]
    assert stray == []


@pytest.mark.parametrize(
    "owner, name",
    [
        (analysis, "strong_error"),
        (analysis, "estimate_moments"),
        (noncolliding, "strong_error"),
        (noncolliding, "estimate_moments"),
        (ParticleSystem, "is_uniform"),
        (ParticleSystem, "uniform_value"),
        (ParticleSystem, "is_tridiagonal"),
        (ParticleSystem, "tridiagonal_values"),
        (ConditionReport, "__iter__"),
    ],
)
def test_deleted_names_stay_deleted(owner, name):
    assert not hasattr(owner, name)


def test_block_stepping_and_replication_keys_have_one_owner():
    # replication rep of a base seed is keyed in one place, and only the
    # block walker continues paths from start states (the 6th argument of
    # `_paths` or its x0); simulate_batch steps whole grids
    sources = {path.stem: path.read_text(encoding="utf-8") for path in INIT.parent.glob("*.py")}
    assert [stem for stem, text in sources.items() for _ in range(text.count("(base_seed, rep) for rep"))] == ["scheme"]
    continuing = set()
    for stem, text in sources.items():
        for fn in ast.parse(text).body:
            for node in ast.walk(fn):
                callee = getattr(node, "func", None)
                if getattr(callee, "id", getattr(callee, "attr", None)) != "_paths":
                    continue
                if len(node.args) > 5 or any(kw.arg == "x0" for kw in node.keywords):
                    continuing.add(f"{stem}.{fn.name}")
    assert continuing == {"analysis._walk"}


STARTUP_PROBE = """
import importlib.machinery, json, sys
import numpy as np
if sys.argv[3] == "linalg_first":
    import scipy.linalg
elif sys.argv[3] == "no_extension":  # no file of SciPy's LAPACK extension is found
    importlib.machinery.EXTENSION_SUFFIXES = []
import noncolliding, noncolliding.cli
from noncolliding import chi_bar, implicit, tridiagonal_gamma, uniform_gamma
from noncolliding.implicit import solve_batch

def loaded():
    return [name for name in ("scipy.linalg", "scipy.optimize") if name in sys.modules]

a, big = (np.array(json.loads(arg)) for arg in sys.argv[1:3])
seen = {"import": loaded()}
uniform = solve_batch(a, uniform_gamma(3, 1.0)).tolist()
seen["uniform"] = loaded()
neighbour = solve_batch(a, tridiagonal_gamma(3, [1.0, 2.0])).tolist()
seen["neighbour"] = loaded()
dense = solve_batch(big, uniform_gamma(len(big[0]), 1.0)).tolist()
seen["dense"] = loaded()
chi = chi_bar(3, 1)
seen["chi_bar"] = loaded()
from scipy.linalg import lapack
same = [getattr(implicit, r) is getattr(lapack, r) for r in ("dgtsv", "dposv")]
print(json.dumps({"seen": seen, "uniform": uniform, "neighbour": neighbour, "dense": dense, "chi": chi, "same": same}))
"""


def probe(mode):
    """`STARTUP_PROBE` in a fresh interpreter, after it checks its results against this process's."""
    a = [[-1.0, 0.0, 1.0], [-2.0, 0.5, 3.0], [0.0, 0.1, 0.2]]
    big = np.linspace(-12.0, 12.0, implicit.CHOLESKY_FROM) + np.array([[0.0], [0.3], [-0.7]])
    env = dict(os.environ, PYTHONPATH=str(Path(noncolliding.__file__).parents[1]))
    args = [sys.executable, "-c", STARTUP_PROBE, json.dumps(a), json.dumps(big.tolist()), mode]
    child = json.loads(subprocess.run(args, capture_output=True, text=True, env=env, check=True).stdout)
    assert np.array_equal(child["uniform"], solve_batch(np.array(a), uniform_gamma(3, 1.0)))
    assert np.array_equal(child["neighbour"], solve_batch(np.array(a), tridiagonal_gamma(3, [1.0, 2.0])))
    assert np.array_equal(child["dense"], solve_batch(big, uniform_gamma(implicit.CHOLESKY_FROM, 1.0)))
    assert child["chi"] == chi_bar(3, 1)
    assert child["same"] == [True, True]
    return child["seen"]


def test_scipy_is_imported_only_by_the_paths_that_call_it():
    # a fresh interpreter: importing the package and its CLI, a d = 3 uniform
    # solve (LU), a nearest-neighbour solve (`dgtsv`) and a dense solve from
    # CHOLESKY_FROM (`dposv`) load no SciPy package: the two routines come from
    # SciPy's LAPACK extension alone, the objects scipy.linalg.lapack
    # re-exports.  chi_bar, a NumPy fixed-point iteration, loads no SciPy either
    assert probe("plain") == {
        "import": [],
        "uniform": [],
        "neighbour": [],
        "dense": [],
        "chi_bar": [],
    }


@pytest.mark.parametrize("mode", ["linalg_first", "no_extension"])
def test_lapack_routines_come_from_scipy_linalg_when_it_is_at_hand(mode):
    # with scipy.linalg loaded before the first band solve, the routines are
    # taken from it; with no extension file found, the first band solve
    # imports scipy.linalg.lapack; either way with the in-process bits
    seen = probe(mode)
    assert seen["neighbour"] == seen["dense"] == ["scipy.linalg"]
    assert seen["import"] == seen["uniform"] == (["scipy.linalg"] if mode == "linalg_first" else [])
