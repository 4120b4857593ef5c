"""The benchmark's output checks report broken outputs as failed.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402


def test_ordered_paths_pass_and_unordered_state_fails():
    states = np.tile(np.arange(4.0), (3, 5, 1))
    assert not checks.check_ordered_paths(states).any()
    states[1, 2, [1, 2]] = states[1, 2, [2, 1]]
    assert checks.check_ordered_paths(states).tolist() == [False, True, False]


def test_centre_of_mass_oracle():
    x0 = np.array([-1.0, 0.0, 1.0])
    inc = np.arange(12.0).reshape(2, 2, 3) / 10.0
    states = np.zeros((2, 3, 3))
    states[:, -1] = x0 + inc.sum(axis=1)
    assert not checks.check_centre_of_mass(states, x0, inc).any()
    states[0, -1, 0] += 1e-6
    assert checks.check_centre_of_mass(states, x0, inc).tolist() == [True, False]


def test_solve_pair_gates():
    xi = np.array([-1.0, 0.5, 2.0])
    assert checks.check_solve_pair(1e-13, xi, xi + 1e-10) == 0
    assert checks.check_solve_pair(1e-9, xi, xi) == 1
    assert checks.check_solve_pair(1e-13, xi, xi + 1e-6) == 1
    assert checks.check_solve_pair(1e-13, xi[::-1], xi[::-1]) == 2


def _paths_csv(paths, n, rows_dropped=()):
    lines = ["path_id,k,t,x_1,x_2,x_3,min_gap"]
    for p in range(paths):
        for k in range(n + 1):
            if (p, k) not in rows_dropped:
                x = [float(v) for v in np.array([-1.0, 0.0, 1.0]) * (1.0 + 0.1 * p) + 0.01 * k]
                lines.append(",".join(repr(v) for v in [p, k, k / n, *x, 1.0 + 0.1 * p]))
    return "\n".join(lines) + "\n"


def _paths_reference(paths, n):
    terminal = [list(np.array([-1.0, 0.0, 1.0]) * (1.0 + 0.1 * p) + 0.01 * n) for p in range(paths)]
    return {"terminal": terminal, "min_gap": [1.0 + 0.1 * p for p in range(paths)]}


def test_paths_csv_passes_on_matching_output():
    assert checks.check_paths_csv(_paths_csv(3, 4), 3, 4, 3, _paths_reference(3, 4)) == 0


def test_paths_csv_missing_row_fails():
    text = _paths_csv(3, 4, rows_dropped={(1, 2)})
    assert checks.check_paths_csv(text, 3, 4, 3, _paths_reference(3, 4)) == 3


def test_paths_csv_changed_value_fails_one_path():
    reference = _paths_reference(3, 4)
    reference["terminal"][2][1] += 1e-3
    assert checks.check_paths_csv(_paths_csv(3, 4), 3, 4, 3, reference) == 1


def test_converge_csv():
    reference = {"levels": [16, 32, 64], "errors": [0.1, 0.05, 0.025],
                 "std_errs": [1e-3, 5e-4, 2.5e-4], "slope": 1.0}
    body = "n,error,std_err\n16,0.1,0.001\n32,0.05,0.0005\n64,0.025,0.00025\n"
    fit = "slope,intercept,r_squared\n1.0,-0.5,1.0\n"
    assert checks.check_converge_csv(body + fit, reference)
    assert not checks.check_converge_csv(body.replace("0.05,", "0.06,") + fit, reference)
    assert not checks.check_converge_csv(body, reference)


def test_layer_self_times_add_up_to_traced_wall():
    import tracing

    tracer = tracing.Tracer()

    def leaf():
        return np.ones((4, 3))

    def middle():
        tracer.wrap(leaf, "scheme.increments", tracing._increments_bytes)()
        return sum(range(1000))

    tracer.wrap(lambda: tracer.wrap(middle, "analysis.run_study")(), "bench.unit")()
    layers = tracing.layer_metrics(tracer.spans, 1)
    total = sum(layers[k] for k in ("config.parse_s", "cli.emit_self_s", "model.drift_s", "scheme.self_s",
                                    "implicit.self_s", "analysis.run_study_self_s", "bench.self_s"))
    assert abs(total - layers["trace.wall_s"]) < 1e-9
    assert layers["scheme.increments_calls"] == 1
    assert layers["scheme.increments_mb"] == 4 * 3 * 8 / 1e6
    assert layers["analysis.chunks"] == 1
