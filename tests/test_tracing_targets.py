"""The benchmark's tracer wraps package attributes by name; each must exist.

`perfbench/tracing.py` is loaded from its file and only read: a rename or a
deletion in the package that it still names would make every traced run fail
with AttributeError.
"""

import importlib.util
from pathlib import Path

import numpy as np

from noncolliding import ConstantMatrixDiffusion, ParticleSystem, TimeGrid, ZeroDrift, scheme, tridiagonal_gamma

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracing = load_tracing()
    targets = tracing._targets()
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets if not hasattr(module, attr)]
    assert missing == []
    originals = [getattr(module, attr) for module, attr, _, _ in targets]
    with tracing.patched(tracing.Tracer()):
        pass
    assert [getattr(module, attr) for module, attr, _, _ in targets] == originals


def test_batch_counters_count_every_step_and_row():
    # `--trace 1` reads the rows of each solve_batch call from its first
    # argument; a change to solve_batch's signature would leave these wrong
    tracing = load_tracing()
    d, m, n = 5, 3, 8
    system = ParticleSystem(
        d=d, gamma=tridiagonal_gamma(d, 1.0), drift=ZeroDrift(),
        diffusion=ConstantMatrixDiffusion(np.eye(d)), x0=np.linspace(-1.0, 1.0, d),
    )
    increments = scheme.generate_brownian_batch(1, m, d, 1.0, n)
    with tracing.patched(tracing.Tracer()) as tracer:
        scheme.simulate_batch(system, TimeGrid(1.0, n), increments)
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["implicit.solve_batch_calls"] == n
    assert metrics["implicit.rows_solved"] == m * n
