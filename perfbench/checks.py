"""Output checks of the benchmark workloads.

Each check returns the number of failed operations among those it was given,
so a run can report failed / attempted.  None of them depends on bit-exact
arithmetic: recorded values are compared with a tolerance far above roundoff,
and the oracles hold for any correct solver.
"""

from __future__ import annotations

import csv
import io

import numpy as np

# Criterion 2 gates of the acceptance suite.
SOLVE_RESIDUAL_TOL = 1e-10
SOLVE_AGREEMENT_TOL = 1e-8

# Every step may leave sum(xi) - sum(a) up to d * tol (tol = 1e-12); over 64
# steps the mean drifts by at most 6.4e-11, so 1e-9 still flags any real defect.
CENTRE_OF_MASS_TOL = 1e-9

# Recorded values are compared far above roundoff, so a change of summation
# order or of the Newton stopping rule does not count as a failure.
REFERENCE_RTOL = 1e-6

# Additive noise with zero drift gives strong rate 1 for the scheme.
SLOPE_RANGE = (0.8, 1.2)


def _close(value, expected):
    return abs(value - expected) <= REFERENCE_RTOL * max(abs(expected), 1e-12)


def check_ordered_paths(states):
    """Paths whose states are not strictly ordered at every time.

    states has shape (paths, times, d); returns a boolean mask of failures.
    """
    return ~(np.diff(states, axis=2) > 0).all(axis=(1, 2))


def check_centre_of_mass(states, x0, increments):
    """Paths violating mean(X_T) = mean(x0) + mean(W_T).

    The interaction term sums to zero for symmetric gamma, so with zero drift
    and sigma = I the scheme keeps the mean of the particles exactly on the
    mean of the driving Brownian motions.
    """
    expected = np.mean(x0) + increments.sum(axis=1).mean(axis=1)
    error = np.abs(states[:, -1].mean(axis=1) - expected)
    return ~(error <= CENTRE_OF_MASS_TOL)


def check_solve_pair(residual_max, xi_default, xi_homotopy):
    """Number of failed solves (0, 1 or 2) for one problem solved both ways.

    The default solve must meet the residual gate and be ordered; the
    homotopy solve must be ordered and agree with the default one.
    """
    failed = 0
    if not (residual_max <= SOLVE_RESIDUAL_TOL and np.all(np.diff(xi_default) > 0)):
        failed += 1
    agree = np.max(np.abs(np.asarray(xi_default) - np.asarray(xi_homotopy)))
    if not (np.all(np.diff(xi_homotopy) > 0) and agree <= SOLVE_AGREEMENT_TOL):
        failed += 1
    return failed


def check_converge_csv(text, reference):
    """True when a `converge` CSV parses and matches the recorded study.

    reference holds the recorded "levels", "errors", "std_errs" and "slope".
    """
    try:
        rows = list(csv.reader(io.StringIO(text)))
        levels = reference["levels"]
        if rows[0] != ["n", "error", "std_err"] or rows[len(levels) + 1] != [
            "slope", "intercept", "r_squared"
        ]:
            return False
        body = rows[1 : len(levels) + 1]
        slope = float(rows[len(levels) + 2][0])
        if len(rows) != len(levels) + 3:
            return False
    except (IndexError, ValueError):
        return False
    for row, n, err, se in zip(body, levels, reference["errors"], reference["std_errs"]):
        if int(row[0]) != n or not _close(float(row[1]), err) or not _close(float(row[2]), se):
            return False
    return SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1] and _close(slope, reference["slope"])


def check_paths_csv(text, paths, n, d, reference):
    """Number of failed paths in a `simulate` CSV.

    A path fails when it has not exactly n + 1 rows numbered 0..n, when any
    row is unordered or has min_gap <= 0, or when its terminal state or
    minimum gap differs from the recorded values.  A CSV whose header or row
    count is wrong fails every path.
    """
    header = ["path_id", "k", "t"] + [f"x_{i + 1}" for i in range(d)] + ["min_gap"]
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header or len(lines) != paths * (n + 1) + 1:
        return paths
    try:
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError:
        return paths
    if table.shape != (paths * (n + 1), d + 4):
        return paths
    failed = 0
    for p in range(paths):
        rows = table[p * (n + 1) : (p + 1) * (n + 1)]
        x = rows[:, 3 : 3 + d]
        ok = (
            np.all(rows[:, 0] == p)
            and np.array_equal(rows[:, 1], np.arange(n + 1))
            and np.all(np.diff(x, axis=1) > 0)
            and np.all(rows[:, -1] > 0)
            and all(_close(v, r) for v, r in zip(x[-1], reference["terminal"][p]))
            and _close(float(np.min(rows[:, -1])), reference["min_gap"][p])
        )
        failed += not ok
    return failed
