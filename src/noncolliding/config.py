"""Experiment configuration: a small YAML schema with three blocks.

system:             run:                     output:
  d: 3                scheme: semi_implicit    path: out.csv
  gamma:              T: 1.0                   format: csv
    uniform: 4.0      n: 100                   precision: 17
  drift:              levels: [16, 32, 64]
    kind: zero        ref_level: 1024
  diffusion:          paths: 1000
    kind: constant_matrix            seed: 7
    matrix: [[1,0,0],[0,1,0],[0,0,1]]     error_mode: grid_sup_Lp
  x0:                 p: 1.0
    linspace: [-1.0, 1.0]

Every validation failure names the offending key path; YAML syntax errors
carry the line number.  Seeds are mandatory: reproducibility is a hard
contract, so there is no wall-clock default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from . import model
from .analysis import ERROR_MODES, level_rule
from .errors import ConfigError
from .scheme import SCHEMES

__all__ = [
    "SystemConfig",
    "RunConfig",
    "OutputConfig",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "build_system",
]

# YAML kind -> model constructor; a block's keys are the constructor's arguments
GAMMAS = {
    "uniform": model.uniform_gamma,
    "tridiagonal": model.tridiagonal_gamma,
    "matrix": lambda d, rows: np.array(rows, dtype=float),
}
DRIFTS = {
    "zero": model.ZeroDrift,
    "constant": model.ConstantDrift,
    "ornstein_uhlenbeck": model.OrnsteinUhlenbeckDrift,
    "bounded_smooth": model.BoundedSmoothDrift,
}
DIFFUSIONS = {"constant_matrix": model.ConstantMatrixDiffusion, "diagonal_bounded": model.DiagonalBoundedDiffusion}


@dataclass(frozen=True)
class SystemConfig:
    d: int
    gamma_kind: str              # "uniform" | "tridiagonal" | "matrix"
    gamma_value: object          # scalar or tuple of row tuples
    drift_kind: str
    drift_params: tuple          # sorted (key, value) pairs
    diffusion_kind: str
    diffusion_params: tuple
    x0_kind: str                 # "explicit" | "linspace"
    x0_value: tuple


@dataclass(frozen=True)
class RunConfig:
    scheme: str = "semi_implicit"
    T: float = 1.0
    n: int | None = None
    levels: tuple | None = None
    ref_level: int | None = None
    paths: int = 1
    seed: int = 0
    error_mode: str = "grid_sup_Lp"
    p: float = 2.0


@dataclass(frozen=True)
class OutputConfig:
    path: str | None = None
    format: str = "csv"
    precision: int = 17


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig
    run: RunConfig
    output: OutputConfig


def _fail(key, message):
    raise ConfigError(key, message)


def _require(mapping, key, path):
    if not isinstance(mapping, dict):
        _fail(path, "must be a mapping")
    if key not in mapping:
        _fail(f"{path}.{key}", "missing required key")
    return mapping[key]


def _as_number(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(key, f"must be a number, got {value!r}")
    if not np.isfinite(float(value)):
        _fail(key, "must be finite")
    return float(value)


def _as_int(value, key):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(key, f"must be an integer, got {value!r}")
    return int(value)


def _as_vector(value, key):
    if not isinstance(value, (list, tuple)) or not value:
        _fail(key, "must be a non-empty list of numbers")
    return tuple(_as_number(v, key) for v in value)


def _as_matrix(value, key, d):
    if not isinstance(value, list) or len(value) != d:
        _fail(key, f"must be a list of {d} rows")
    rows = tuple(_as_vector(row, key) for row in value)
    if any(len(row) != d for row in rows):
        _fail(key, f"every row must have {d} entries")
    return rows


def _parse_system(block):
    d = _as_int(_require(block, "d", "system"), "system.d")
    if d < 2:
        _fail("system.d", "must be >= 2")

    gamma = _require(block, "gamma", "system")
    if not isinstance(gamma, dict) or len(gamma) != 1:
        _fail("system.gamma", f"must be a mapping with exactly one of: {', '.join(GAMMAS)}")
    gkind, gval = next(iter(gamma.items()))
    if gkind not in GAMMAS:
        _fail("system.gamma", f"unknown gamma form {gkind!r}")
    if gkind == "matrix":
        gvalue = _as_matrix(gval, "system.gamma.matrix", d)
    else:
        gvalue = _as_number(gval, f"system.gamma.{gkind}")
        if gvalue <= 0:
            _fail(f"system.gamma.{gkind}", "must be > 0")

    drift = _require(block, "drift", "system")
    dkind = _require(drift, "kind", "system.drift")
    if dkind not in DRIFTS:
        _fail("system.drift.kind", f"must be one of {tuple(DRIFTS)}")
    dparams = {}
    if dkind == "constant":
        dparams["c"] = _as_vector(_require(drift, "c", "system.drift"), "system.drift.c")
    elif dkind == "ornstein_uhlenbeck":
        dparams["theta"] = _as_number(_require(drift, "theta", "system.drift"), "system.drift.theta")
        dparams["mu"] = _as_vector(_require(drift, "mu", "system.drift"), "system.drift.mu")
    elif dkind == "bounded_smooth":
        dparams["beta"] = _as_number(_require(drift, "beta", "system.drift"), "system.drift.beta")

    diffusion = _require(block, "diffusion", "system")
    skind = _require(diffusion, "kind", "system.diffusion")
    if skind not in DIFFUSIONS:
        _fail("system.diffusion.kind", f"must be one of {tuple(DIFFUSIONS)}")
    sparams = {}
    if skind == "constant_matrix":
        sparams["matrix"] = _as_matrix(_require(diffusion, "matrix", "system.diffusion"), "system.diffusion.matrix", d)
    else:
        sparams["s0"] = _as_number(_require(diffusion, "s0", "system.diffusion"), "system.diffusion.s0")
        sparams["s1"] = _as_number(diffusion.get("s1", 0.0), "system.diffusion.s1")

    x0 = _require(block, "x0", "system")
    if isinstance(x0, dict) and set(x0) == {"linspace"}:
        lohi = _as_vector(x0["linspace"], "system.x0.linspace")
        if len(lohi) != 2 or lohi[0] >= lohi[1]:
            _fail("system.x0.linspace", "must be [lo, hi] with lo < hi")
        x0_kind, x0_value = "linspace", lohi
    elif isinstance(x0, list):
        x0_kind, x0_value = "explicit", _as_vector(x0, "system.x0")
        if len(x0_value) != d:
            _fail("system.x0", f"must have {d} entries")
        if any(b <= a for a, b in zip(x0_value, x0_value[1:])):
            _fail("system.x0", "must be strictly increasing")
    else:
        _fail("system.x0", "must be an explicit list or {linspace: [lo, hi]}")

    return SystemConfig(
        d=d,
        gamma_kind=gkind,
        gamma_value=gvalue,
        drift_kind=dkind,
        drift_params=tuple(sorted(dparams.items())),
        diffusion_kind=skind,
        diffusion_params=tuple(sorted(sparams.items())),
        x0_kind=x0_kind,
        x0_value=x0_value,
    )


def _parse_run(block):
    if block is None:
        block = {}
    if not isinstance(block, dict):
        _fail("run", "must be a mapping")
    if "seed" not in block:
        _fail("run.seed", "missing required key (seeds are mandatory; no wall-clock default)")
    seed = _as_int(block["seed"], "run.seed")
    if seed < 0:
        _fail("run.seed", "must be >= 0")
    scheme = block.get("scheme", "semi_implicit")
    if scheme not in SCHEMES:
        _fail("run.scheme", f"must be one of {SCHEMES}")
    T = _as_number(block.get("T", 1.0), "run.T")
    if T <= 0:
        _fail("run.T", "must be > 0")
    n = block.get("n")
    if n is not None:
        n = _as_int(n, "run.n")
        if n < 1:
            _fail("run.n", "must be >= 1")
    levels = block.get("levels")
    if levels is not None:
        if not isinstance(levels, list) or not levels:
            _fail("run.levels", "must be a non-empty list")
        levels = tuple(_as_int(v, "run.levels") for v in levels)
    ref_level = block.get("ref_level")
    if ref_level is not None:
        ref_level = _as_int(ref_level, "run.ref_level")
    if broken := level_rule(levels, ref_level):
        _fail(f"run.{broken[0]}", broken[1])
    paths = _as_int(block.get("paths", 1), "run.paths")
    if paths < 1:
        _fail("run.paths", "must be >= 1")
    error_mode = block.get("error_mode", "grid_sup_Lp")
    if error_mode not in ERROR_MODES:
        _fail("run.error_mode", f"must be one of {ERROR_MODES}")
    p = _as_number(block.get("p", 2.0), "run.p")
    if p <= 0:
        _fail("run.p", "must be > 0")
    return RunConfig(
        scheme=scheme, T=T, n=n, levels=levels, ref_level=ref_level,
        paths=paths, seed=seed, error_mode=error_mode, p=p,
    )


def _parse_output(block):
    if block is None:
        block = {}
    if not isinstance(block, dict):
        _fail("output", "must be a mapping")
    fmt = block.get("format", "csv")
    if fmt != "csv":
        _fail("output.format", "only 'csv' is supported")
    precision = _as_int(block.get("precision", 17), "output.precision")
    if not 1 <= precision <= 17:
        _fail("output.precision", "must be in [1, 17]")
    path = block.get("path")
    if path is not None and not isinstance(path, str):
        _fail("output.path", "must be a string")
    return OutputConfig(path=path, format=fmt, precision=precision)


def parse_config(text):
    """Parse and fully validate a YAML experiment configuration."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError("<syntax>", f"YAML parse error{line}: {getattr(exc, 'problem', exc)}")
    if not isinstance(raw, dict):
        _fail("<root>", "config must be a mapping with blocks: system, run, output")
    known = {"system", "run", "output"}
    for key in raw:
        if key not in known:
            _fail(str(key), "unknown top-level block")
    system = _parse_system(_require(raw, "system", "<root>"))
    run = _parse_run(raw.get("run"))
    output = _parse_output(raw.get("output"))
    return ExperimentConfig(system=system, run=run, output=output)


def serialize_config(cfg):
    """YAML text that parses back to an equal ExperimentConfig."""
    sys_block = {
        "d": cfg.system.d,
        "gamma": {cfg.system.gamma_kind: _plain(cfg.system.gamma_value)},
        "drift": {"kind": cfg.system.drift_kind, **{k: _plain(v) for k, v in cfg.system.drift_params}},
        "diffusion": {"kind": cfg.system.diffusion_kind, **{k: _plain(v) for k, v in cfg.system.diffusion_params}},
        "x0": list(cfg.system.x0_value) if cfg.system.x0_kind == "explicit" else {"linspace": list(cfg.system.x0_value)},
    }
    run_block = {"scheme": cfg.run.scheme, "T": cfg.run.T, "paths": cfg.run.paths,
                 "seed": cfg.run.seed, "error_mode": cfg.run.error_mode, "p": cfg.run.p}
    if cfg.run.n is not None:
        run_block["n"] = cfg.run.n
    if cfg.run.levels is not None:
        run_block["levels"] = list(cfg.run.levels)
    if cfg.run.ref_level is not None:
        run_block["ref_level"] = cfg.run.ref_level
    out_block = {"format": cfg.output.format, "precision": cfg.output.precision}
    if cfg.output.path is not None:
        out_block["path"] = cfg.output.path
    return yaml.safe_dump({"system": sys_block, "run": run_block, "output": out_block}, sort_keys=False)


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def build_system(syscfg):
    """Construct the immutable ParticleSystem described by a SystemConfig."""
    d = syscfg.d
    gamma = GAMMAS[syscfg.gamma_kind](d, syscfg.gamma_value)
    drift = DRIFTS[syscfg.drift_kind](**dict(syscfg.drift_params))
    diffusion = DIFFUSIONS[syscfg.diffusion_kind](**dict(syscfg.diffusion_params))
    if syscfg.x0_kind == "linspace":
        x0 = np.linspace(syscfg.x0_value[0], syscfg.x0_value[1], d)
    else:
        x0 = np.array(syscfg.x0_value, dtype=float)
    try:
        return model.ParticleSystem(d=d, gamma=gamma, drift=drift, diffusion=diffusion, x0=x0)
    except ValueError as exc:
        raise ConfigError("system", str(exc))
