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

Each block is parsed in one place against a table of its keys, and a key
that is not in the table is refused.  The keys of a drift or diffusion block
besides `kind` are the parameters of the `model` constructor its kind names;
a parameter without a default is required.  Defaults live only in RunConfig,
OutputConfig and those constructors: a block passes on the keys it was given.

Every validation failure names the offending key path; YAML syntax errors
carry the line number.  Seeds are mandatory: reproducibility is a hard
contract, so there is no wall-clock default.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass
from functools import partial

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


def _mapping(value, path, keys):
    """value as a mapping whose keys all lie in keys; an absent (null) block is empty."""
    if value is None:
        value = {}
    if not isinstance(value, dict):
        _fail(path, "must be a mapping")
    for key in value:
        if key not in keys:
            _fail(f"{path}.{key}", f"unknown key; expected one of ({', '.join(keys)})")
    return value


def _parsed(value, path, parsers):
    """The keys given in one block, each parsed by parsers[key]."""
    return {key: parsers[key](v, f"{path}.{key}") for key, v in _mapping(value, path, parsers).items()}


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


def _as_positive(value, key):
    value = _as_number(value, key)
    if value <= 0:
        _fail(key, "must be > 0")
    return value


def _as_int(value, key, least=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(key, f"must be an integer, got {value!r}")
    if least is not None and value < least:
        _fail(key, f"must be >= {least}")
    return int(value)


def _as_vector(value, key):
    if not isinstance(value, (list, tuple)) or not value:
        _fail(key, "must be a non-empty list of numbers")
    return tuple(_as_number(v, key) for v in value)


def _as_matrix(value, key):
    # a square list of rows; the system checks that it is d x d
    if not isinstance(value, list) or not value:
        _fail(key, "must be a non-empty list of rows")
    rows = tuple(_as_vector(row, key) for row in value)
    if any(len(row) != len(rows) for row in rows):
        _fail(key, f"must be square: every row must have {len(rows)} entries")
    return rows


def _as_levels(value, key):
    if not isinstance(value, list) or not value:
        _fail(key, "must be a non-empty list")
    return tuple(_as_int(v, key) for v in value)


def _one_of(value, key, choices):
    if value not in choices:
        _fail(key, f"must be one of {choices}")
    return value


def _as_precision(value, key):
    value = _as_int(value, key)
    if not 1 <= value <= 17:
        _fail(key, "must be in [1, 17]")
    return value


def _as_path(value, key):
    if not isinstance(value, str):
        _fail(key, "must be a string")
    return value


# the parser of each key: a drift or diffusion constructor's parameters, run, output
PARAMS = {"c": _as_vector, "theta": _as_number, "mu": _as_vector, "beta": _as_number,
          "matrix": _as_matrix, "s0": _as_number, "s1": _as_number}
RUN = {"scheme": partial(_one_of, choices=SCHEMES), "T": _as_positive, "n": partial(_as_int, least=1),
       "levels": _as_levels, "ref_level": _as_int, "paths": partial(_as_int, least=1),
       "seed": partial(_as_int, least=0), "error_mode": partial(_one_of, choices=ERROR_MODES), "p": _as_positive}
OUTPUT = {"path": _as_path, "format": partial(_one_of, choices=("csv",)), "precision": _as_precision}


def _parse_family(value, path, kinds):
    """(kind, sorted parameters) of a drift or diffusion block; its keys are the constructor's."""
    kind = _one_of(_require(value, "kind", path), f"{path}.kind", tuple(kinds))
    params = inspect.signature(kinds[kind]).parameters
    _mapping(value, path, ("kind", *params))
    for name, param in params.items():
        if param.default is param.empty:
            _require(value, name, path)
    return kind, tuple(sorted((k, PARAMS[k](v, f"{path}.{k}")) for k, v in value.items() if k != "kind"))


def _parse_system(block):
    block = _mapping(block, "system", ("d", "gamma", "drift", "diffusion", "x0"))
    d = _as_int(_require(block, "d", "system"), "system.d", least=2)

    gamma = _require(block, "gamma", "system")
    if not isinstance(gamma, dict) or len(gamma) != 1:
        _fail("system.gamma", f"must be a mapping with exactly one of: {', '.join(GAMMAS)}")
    gkind, gval = next(iter(gamma.items()))
    if gkind not in GAMMAS:
        _fail("system.gamma", f"unknown gamma form {gkind!r}")
    parse = _as_matrix if gkind == "matrix" else _as_positive
    gvalue = parse(gval, f"system.gamma.{gkind}")

    dkind, dparams = _parse_family(_require(block, "drift", "system"), "system.drift", DRIFTS)
    skind, sparams = _parse_family(_require(block, "diffusion", "system"), "system.diffusion", DIFFUSIONS)

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
        drift_params=dparams,
        diffusion_kind=skind,
        diffusion_params=sparams,
        x0_kind=x0_kind,
        x0_value=x0_value,
    )


def _parse_run(block):
    run = _parsed(block, "run", RUN)
    if "seed" not in run:
        _fail("run.seed", "missing required key (seeds are mandatory; no wall-clock default)")
    if broken := level_rule(run.get("levels"), run.get("ref_level")):
        _fail(f"run.{broken[0]}", broken[1])
    return RunConfig(**run)


def parse_config(text):
    """Parse and fully validate a YAML experiment configuration."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError("<syntax>", f"YAML parse error{line}: {getattr(exc, 'problem', exc)}")
    raw = _mapping(raw, "<root>", ("system", "run", "output"))
    system = _parse_system(_require(raw, "system", "<root>"))
    run = _parse_run(raw.get("run"))
    output = OutputConfig(**_parsed(raw.get("output"), "output", OUTPUT))
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
    run_block, out_block = ({k: _plain(v) for k, v in asdict(c).items() if v is not None} for c in (cfg.run, cfg.output))
    return yaml.safe_dump({"system": sys_block, "run": run_block, "output": out_block}, sort_keys=False)


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def build_system(syscfg):
    """Construct the immutable ParticleSystem described by a SystemConfig."""
    d = syscfg.d
    if syscfg.x0_kind == "linspace":
        x0 = np.linspace(syscfg.x0_value[0], syscfg.x0_value[1], d)
    else:
        x0 = np.array(syscfg.x0_value, dtype=float)
    try:
        gamma = GAMMAS[syscfg.gamma_kind](d, syscfg.gamma_value)
        drift = DRIFTS[syscfg.drift_kind](**dict(syscfg.drift_params))
        diffusion = DIFFUSIONS[syscfg.diffusion_kind](**dict(syscfg.diffusion_params))
        return model.ParticleSystem(d=d, gamma=gamma, drift=drift, diffusion=diffusion, x0=x0)
    except ValueError as exc:
        raise ConfigError("system", str(exc))
