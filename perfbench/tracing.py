"""Spans recorded around the package's public entry points, from outside.

`patched(tracer)` replaces the module attributes that callers look up
(for example `analysis.simulate_batch` or `scheme.drift_eval`) with timing
wrappers and restores them afterwards.  Each wrapper appends one span
(name, layer, start, end, parent, info) to the tracer's in-memory list.
`layer_metrics` turns the spans of the traced units into per-layer numbers;
a span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import time

import numpy as np

LAYERS = ("config", "cli", "model", "scheme", "implicit", "analysis", "bench")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, info=None):
        """Return fn recording a span; info(args, kwargs, result) adds call details."""
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                detail = info(args, kwargs, result) if info and result is not None else None
                self.spans[index] = (name, layer, start, end, parent, detail)

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [dict(zip(("name", "layer", "start", "end", "parent", "info"), s)) for s in self.spans],
                fh,
            )


def _increments_bytes(args, kwargs, result):
    return {"bytes": int(getattr(result, "increments", result).nbytes)}


def _batch_rows(args, kwargs, result):
    m, d = np.shape(args[0] if args else kwargs["a"])
    return {"rows": m, "d": d}


def _solve_info(args, kwargs, result):
    opts = args[1] if len(args) > 1 else kwargs.get("opts")
    return {
        "requested": opts.method if opts is not None else "auto",
        "method": result.method,
        "iterations": result.iterations,
        "d": result.xi.shape[0],
    }


def _targets():
    from noncolliding import analysis, cli, implicit, scheme

    # (module, attribute, span name, info); the span's layer is the module
    # that does the work, which for `_batch_increments` is the increment layer.
    return [
        (cli, "main", "cli.main", None),
        (cli, "parse_config", "config.parse_config", None),
        (cli, "build_system", "config.build_system", None),
        (analysis, "run_study", "analysis.run_study", None),
        (analysis, "simulate_batch", "scheme.simulate_batch", None),
        (analysis, "_batch_increments", "scheme.increments", _increments_bytes),
        (scheme, "generate_brownian", "scheme.increments", _increments_bytes),
        (scheme, "generate_brownian_batch", "scheme.increments", _increments_bytes),
        (scheme, "replication_seed", "scheme.replication_seed", None),
        (scheme, "simulate", "scheme.simulate", None),
        (scheme, "simulate_batch", "scheme.simulate_batch", None),
        (scheme, "step_semi_implicit", "scheme.step_semi_implicit", None),
        (scheme, "drift_eval", "model.drift_eval", None),
        (scheme, "diffusion_eval", "model.diffusion_eval", None),
        (scheme, "ImplicitProblem", "implicit.ImplicitProblem", None),
        (implicit, "solve", "implicit.solve", _solve_info),
        (implicit, "solve_batch", "implicit.solve_batch", _batch_rows),
        (implicit, "solve_homotopy", "implicit.solve_homotopy", None),
    ]


@contextlib.contextmanager
def patched(tracer):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for module, attr, name, info in _targets():
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.wrap(getattr(module, attr), name, info))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(spans, units):
    """Per-layer metrics averaged over `units` traced units.

    Times and counts are per unit; percentiles are over all calls.  The
    self times of the layers in LAYERS add up to trace.wall_s.
    """
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = [s[3] - s[2] - child_time[i] for i, s in enumerate(spans)]

    def select(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(indices, key=lambda i: spans[i][3] - spans[i][2]):
        return sum(key(i) for i in indices)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        layer_self[s[1]] += self_time[i]

    # spans of calls that raised carry no info and are left out of the figures
    increments = [i for i in select("scheme.increments") if spans[i][5]]
    batches = [i for i in select("implicit.solve_batch") if spans[i][5]]
    batch_s = total(batches)
    rows = sum(spans[i][5]["rows"] for i in batches)
    solves = [spans[i] for i in select("implicit.solve") if spans[i][5]]
    auto = [s for s in solves if s[5]["requested"] == "auto"]
    auto_newton = [s for s in auto if s[5]["method"] == "newton"]
    homotopy = [s for s in solves if s[5]["requested"] == "homotopy"]
    fallbacks = [i for i in select("implicit.solve_homotopy") if spans[spans[i][4]][0] == "implicit.solve_batch"]
    chunks = [i for i in increments if spans[i][4] >= 0 and spans[spans[i][4]][1] == "analysis"]
    jacobian_bytes = [spans[i][5]["rows"] * spans[i][5]["d"] ** 2 * 8 for i in batches]
    jacobian_bytes += [s[5]["d"] ** 2 * 8 for s in solves]
    roots = [i for i, s in enumerate(spans) if s[4] < 0]

    def us(values):
        return [1e6 * v for v in values]

    return {
        "config.parse_s": layer_self["config"] / units,
        "cli.emit_self_s": layer_self["cli"] / units,
        "model.drift_calls": len(select("model.drift_eval") + select("model.diffusion_eval")) / units,
        "model.drift_s": layer_self["model"] / units,
        "scheme.increments_calls": len(increments) / units,
        "scheme.increments_s": total(increments) / units,
        "scheme.increments_mb": sum(spans[i][5]["bytes"] for i in increments) / 1e6 / units,
        "scheme.simulate_batch_self_s": total(select("scheme.simulate_batch"), lambda i: self_time[i]) / units,
        "scheme.step_self_p50_us": _pct(us(self_time[i] for i in select("scheme.step_semi_implicit")), 50),
        "scheme.self_s": layer_self["scheme"] / units,
        "implicit.solve_batch_calls": len(batches) / units,
        "implicit.solve_batch_s": batch_s / units,
        "implicit.solve_batch_p50_us": _pct(us(spans[i][3] - spans[i][2] for i in batches), 50),
        "implicit.solve_batch_p99_us": _pct(us(spans[i][3] - spans[i][2] for i in batches), 99),
        "implicit.rows_solved": rows / units,
        "implicit.rows_per_s": rows / batch_s if batch_s > 0 else 0.0,
        "implicit.jacobian_mb_computed": max(jacobian_bytes, default=0) / 1e6,
        "implicit.fallback_rows": len(fallbacks) / units,
        "implicit.fallback_ratio": len(fallbacks) / rows if rows else 0.0,
        "implicit.solve_p50_us": _pct(us(s[3] - s[2] for s in auto), 50),
        "implicit.solve_p99_us": _pct(us(s[3] - s[2] for s in auto), 99),
        "implicit.newton_iters_mean": _mean([s[5]["iterations"] for s in auto_newton]),
        "implicit.auto_fallback_share": (len(auto) - len(auto_newton)) / len(auto) if auto else 0.0,
        "implicit.homotopy_solve_p50_us": _pct(us(s[3] - s[2] for s in homotopy), 50),
        "implicit.homotopy_solve_p99_us": _pct(us(s[3] - s[2] for s in homotopy), 99),
        "implicit.homotopy_iters_mean": _mean([s[5]["iterations"] for s in homotopy]),
        "implicit.self_s": layer_self["implicit"] / units,
        "analysis.run_study_self_s": layer_self["analysis"] / units,
        "analysis.chunks": len(chunks) / units,
        "analysis.chunk_mb_computed": max((spans[i][5]["bytes"] for i in chunks), default=0) / 1e6,
        "bench.self_s": layer_self["bench"] / units,
        "trace.wall_s": total(roots) / units,
    }
