"""The package's public surface: what `__all__` and the top level promise exists.

Each question has one public entry point; the names deleted in favour of
another stay deleted (a study's per-level errors are `run_study`'s, a moment
at one time is `moment_profile(..., times=[t])[0]`, and γ's structure is
asked of `model.is_uniform` / `model.is_tridiagonal`).
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import noncolliding
from noncolliding import ConditionReport, ParticleSystem, analysis

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
