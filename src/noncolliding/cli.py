"""Command-line front end.

Subcommands: solve, simulate, converge, moments, collide, inequalities,
chi-bar, check.  All output is CSV, written to --out, else to the config's
output.path, else to stdout, and fully determined by (config, seed):
running any subcommand twice with identical inputs produces byte-identical
output.  Integers print in full; other numbers to `output.precision` digits
(simulate, converge, moments, collide) or to 17 (the other subcommands).

Exit codes: 0 success, 1 condition check failed, 2 validation error,
3 solver non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import analysis, model, scheme
from .config import build_system, parse_config
from .errors import ConfigError, NonConvergenceError
from .implicit import METHODS, ImplicitProblem, SolverOptions, solve

__all__ = ["main", "entry_point"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4


def _template(values, precision=17):
    """The %-template of every CSV row shaped as values: `%s` for text and
    Python ints, so they print as str gives them (True as True), and
    `%.{precision}g` for every other number."""
    number = f"%.{precision}g"
    return ",".join("%s" if isinstance(v, (str, int)) else number for v in values)


def _row(values, precision=17):
    """One CSV row, values filled into their `_template` by one %."""
    return _template(values, precision) % tuple(values)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to a YAML experiment configuration")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override run.seed from the config")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write CSV here instead of stdout or output.path")
    parser = argparse.ArgumentParser(
        prog="noncolliding",
        description="Structure-preserving simulation of non-colliding particle systems",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve one implicit per-step system", parents=[common])
    s.add_argument("--a", required=True, help="comma-separated offsets a_1,...,a_d")
    s.add_argument("--c-uniform", type=float, help="uniform coefficient for all pairs")
    s.add_argument("--c-tridiagonal", help="comma-separated nearest-neighbour coefficients")
    s.add_argument("--c-full", help="full matrix, rows separated by ';'")
    s.add_argument("--method", default="auto", choices=("auto", *METHODS))
    s.add_argument("--tol", type=float, default=1e-12)

    s = sub.add_parser("simulate", help="simulate sample paths", parents=[common])
    s.add_argument("--scheme", choices=scheme.SCHEMES)
    s.add_argument("--n", type=int, help="override run.n")
    s.add_argument("--paths", type=int, help="override run.paths")

    sub.add_parser("converge", help="strong-error convergence study", parents=[common])

    s = sub.add_parser("moments", help="absolute and inverse-gap moment estimates", parents=[common])
    s.add_argument("--times", type=int, default=11, help="number of report times on [0, T]")

    sub.add_parser("collide", help="explicit-scheme chamber-exit rate with semi-implicit control", parents=[common])

    s = sub.add_parser("inequalities", help="random sweeps of the gap inequalities", parents=[common])
    s.add_argument("--kind", choices=["full", "nn"], required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--p", type=float, default=0.0)
    s.add_argument("--count", type=int, default=100000)
    s.add_argument("--sweep-seed", type=int, default=0)

    s = sub.add_parser("chi-bar", help="sharp nearest-neighbour inequality constant", parents=[common])
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--p", type=float, default=0.0)

    s = sub.add_parser("check", help="parameter-condition report for the configured system", parents=[common])
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--chi", type=float, help="nearest-neighbour constant (computed when omitted)")
    return parser


def _load_config(args):
    """The config named by --config, with --seed and --out applied, and the system it describes."""
    if not args.config:
        raise ConfigError("--config", "this subcommand requires a configuration file")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _IOFailure(str(exc))
    cfg = parse_config(text)
    if args.seed is not None:
        _at_least("--seed", args.seed, 0)
        cfg = replace(cfg, run=replace(cfg.run, seed=args.seed))
    if args.out is None:  # --out wins over output.path
        args.out = cfg.output.path
    return cfg, build_system(cfg.system)


class _IOFailure(Exception):
    pass


def _at_least(flag, value, least):
    # NaN and infinity fail too, so no flag value outside the range reaches NumPy
    if not least <= value < np.inf:
        raise ConfigError(flag, f"must be >= {least} and finite, got {value}")


def _parse_vector(text, key):
    try:
        values = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(key, f"could not parse {text!r} as comma-separated numbers")
    if not np.isfinite(values).all():
        raise ConfigError(key, f"every entry must be finite, got {text!r}")
    return values


def _cmd_solve(args, emit):
    a = _parse_vector(args.a, "--a")
    d = a.shape[0]
    if d < 2:
        raise ConfigError("--a", "need at least two particles")
    given = [x is not None for x in (args.c_uniform, args.c_tridiagonal, args.c_full)]
    if sum(given) != 1:
        raise ConfigError("--c-*", "give exactly one of --c-uniform, --c-tridiagonal, --c-full")
    if args.c_uniform is not None:
        c = model.uniform_gamma(d, args.c_uniform)
    elif args.c_tridiagonal is not None:
        vals = _parse_vector(args.c_tridiagonal, "--c-tridiagonal")
        if vals.shape[0] not in (1, d - 1):
            raise ConfigError("--c-tridiagonal", f"need {d - 1} coefficients")
        c = model.tridiagonal_gamma(d, vals)
    else:
        c = [_parse_vector(row, "--c-full") for row in args.c_full.split(";")]
    try:
        problem = ImplicitProblem(a, c)
    except ValueError as exc:
        raise ConfigError("--c-*", str(exc))
    result = solve(problem, SolverOptions(method=args.method, tol=args.tol))
    emit(",".join(["xi_" + str(i + 1) for i in range(d)] + ["residual", "iterations", "method"]))
    emit(_row([*result.xi, result.residual_norm, result.iterations, result.method]))
    return EXIT_OK


def _cmd_simulate(args, emit):
    cfg, system = _load_config(args)
    which = args.scheme or cfg.run.scheme
    key, n = ("run.n", cfg.run.n) if args.n is None else ("--n", args.n)
    if n is None:
        raise ConfigError("run.n", "simulate requires a step count")
    if not scheme._is_power_of_two(n):
        raise ConfigError(key, f"step count must be a power of 2, got {n}")
    paths = cfg.run.paths if args.paths is None else args.paths
    _at_least("--paths", paths, 1)
    grid = scheme.TimeGrid(cfg.run.T, n)
    emit("path_id,k,t," + ",".join(f"x_{i+1}" for i in range(system.d)) + ",min_gap")
    # replication r draws from replication_seed(seed, r), not from the
    # SeedSequence((seed, r)) key of the studies; the README says why
    seeds = [scheme.replication_seed(cfg.run.seed, rep) for rep in range(paths)]
    inc = np.stack([scheme.generate_brownian(s, system.d, cfg.run.T, n).increments for s in seeds])
    states, _ = scheme.simulate_batch(system, grid, inc, scheme=which)
    del inc  # as large as the states, and read no more
    gaps = np.diff(states, axis=2).min(axis=2)
    # the n + 1 rows of a path, as Python ints and floats in an object array,
    # go out as one string: one % on the template of n + 1 such rows
    rows = np.empty((n + 1, system.d + 4), dtype=object)
    rows[:, 1], rows[:, 2] = range(n + 1), grid.times()
    for rep in range(paths):
        rows[:, 0], rows[:, 3:-1], rows[:, -1] = rep, states[rep], gaps[rep]
        if rep == 0:
            template = "\n".join([_template(rows[0], cfg.output.precision)] * (n + 1))
        emit(template % tuple(rows.ravel().tolist()))
    return EXIT_OK


def _cmd_converge(args, emit):
    cfg, system = _load_config(args)
    if cfg.run.levels is None or cfg.run.ref_level is None:
        raise ConfigError("run.levels", "converge requires run.levels and run.ref_level")
    study = analysis.ConvergenceStudy(
        system=system,
        T=cfg.run.T,
        levels=cfg.run.levels,
        ref_level=cfg.run.ref_level,
        replications=cfg.run.paths,
        error_mode=cfg.run.error_mode,
        p=cfg.run.p,
        base_seed=cfg.run.seed,
    )
    est = analysis.run_study(study)
    emit("n,error,std_err")
    for row in zip(est.levels, est.errors, est.std_errs):
        emit(_row(row, cfg.output.precision))
    emit("slope,intercept,r_squared")
    emit(_row([est.slope, est.intercept, est.r_squared], cfg.output.precision))
    return EXIT_OK


def _cmd_moments(args, emit):
    cfg, system = _load_config(args)
    if cfg.run.n is None:
        raise ConfigError("run.n", "moments requires a step count")
    _at_least("--times", args.times, 1)
    times = np.linspace(0.0, cfg.run.T, args.times)
    reports = analysis.moment_profile(
        system, cfg.run.T, cfg.run.p, cfg.run.paths, cfg.run.n, base_seed=cfg.run.seed, times=times
    )
    gap_cols = [f"inv_gap_{i+1}" for i in range(system.d - 1)]
    se_cols = [f"inv_gap_se_{i+1}" for i in range(system.d - 1)]
    emit("t,p,abs_moment,abs_moment_se," + ",".join(gap_cols + se_cols) + ",bound")
    for r in reports:
        values = [r.t, r.p, r.est_abs_moment, r.abs_moment_std_err, *r.est_inv_gap_moments, *r.inv_gap_std_errs]
        emit(_row(values + [r.bound], cfg.output.precision))
    return EXIT_OK


def _cmd_collide(args, emit):
    cfg, system = _load_config(args)
    if cfg.run.n is None:
        raise ConfigError("run.n", "collide requires a step count")
    rate = analysis.collision_rate_explicit(system, cfg.run.n, cfg.run.paths, cfg.run.seed, T=cfg.run.T)
    # semi-implicit control on the identical Brownian paths
    grid = scheme.TimeGrid(cfg.run.T, cfg.run.n)

    def control(start, stop, blocks):
        walk = analysis._walk(system, grid)
        return min(walk(inc)[1] for _, inc in blocks)

    min_gap = min(analysis._replications(cfg.run.seed, cfg.run.paths, system.d, cfg.run.T, cfg.run.n, control))
    control_rate = 0.0 if min_gap > 0 else float("nan")
    emit("scheme,n,paths,exit_fraction")
    emit(_row(["explicit", cfg.run.n, cfg.run.paths, rate], cfg.output.precision))
    emit(_row(["semi_implicit", cfg.run.n, cfg.run.paths, control_rate], cfg.output.precision))
    return EXIT_OK


def _cmd_inequalities(args, emit):
    _at_least("--d", args.d, 2 if args.kind == "full" else 3)
    _at_least("--p", args.p, 0)
    _at_least("--count", args.count, 1)
    _at_least("--sweep-seed", args.sweep_seed, 0)
    if args.kind == "full":
        chi = ""
        violations = analysis.sweep_gap_inequality_full(args.d, args.p, args.count, seed=args.sweep_seed)
    else:
        chi = analysis.chi_bar(args.d, args.p)
        violations = analysis.sweep_gap_inequality_nn(args.d, args.p, chi, args.count, seed=args.sweep_seed)
    emit("kind,d,p,count,chi,violations")
    emit(_row([args.kind, args.d, args.p, args.count, chi, violations]))
    return EXIT_OK


def _cmd_chi_bar(args, emit):
    _at_least("--d", args.d, 3)
    _at_least("--p", args.p, 0)
    chi = analysis.chi_bar(args.d, args.p)
    emit("d,p,chi")
    emit(_row([args.d, args.p, chi]))
    return EXIT_OK


def _cmd_check(args, emit):
    _at_least("--p", args.p, 1)
    if args.chi is not None and not 0 < args.chi < 2:
        raise ConfigError("--chi", f"must lie in (0, 2), got {args.chi}")
    _, system = _load_config(args)
    if model.is_uniform(system.gamma):
        if args.chi is not None:
            raise ConfigError("--chi", "the full-interaction check of a uniform gamma takes no chi")
        report = model.check_full_interaction_condition(system, args.p)
    elif model.is_tridiagonal(system.gamma):
        chi = args.chi if args.chi is not None else analysis.chi_bar(system.d, args.p)
        if chi >= 2:
            raise ConfigError(
                "--chi", f"computed chi = {_row([chi])} is not < 2; the condition is not applicable"
            )
        report = model.check_nn_condition(system, args.p, chi)
    else:
        raise ConfigError("system.gamma", "check requires uniform or tridiagonal gamma")
    emit("check,lhs,rhs,satisfied")
    for c in report.checks:
        emit(_row([f'"{c.name}"', c.lhs, c.rhs, str(c.satisfied).lower()]))
    return EXIT_OK if report.satisfied else EXIT_CHECK_FAILED


_COMMANDS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "moments": _cmd_moments,
    "collide": _cmd_collide,
    "inequalities": _cmd_inequalities,
    "chi-bar": _cmd_chi_bar,
    "check": _cmd_check,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Global flags use SUPPRESS so a value given before the subcommand is not
    # clobbered by the subparser; fill in the defaults for absent flags here.
    for name, default in (("config", None), ("seed", None), ("out", None)):
        if not hasattr(args, name):
            setattr(args, name, default)
    lines = []
    try:
        code = _COMMANDS[args.command](args, lines.append)
    except ValueError as exc:  # ConfigError and the library's input checks
        print(f"error,validation,\"{exc}\"", file=sys.stderr)
        return EXIT_VALIDATION
    except NonConvergenceError as exc:
        print(f"error,nonconvergence,\"{exc}\"", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except _IOFailure as exc:
        print(f"error,io,\"{exc}\"", file=sys.stderr)
        return EXIT_IO
    # a line may hold many rows (simulate emits a path at a time); no joined
    # copy of the whole output is made
    text = (line + "\n" for line in lines)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(text)
        except OSError as exc:
            print(f"error,io,\"{exc}\"", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.writelines(text)
    return code


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
