"""One benchmark run of one workload, in a fresh process started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Set-up time runs from the start of this module to the first timed call:
imports, then config parse and system build or input generation.  Like the
units, it is reported in reference seconds (see calibrate.py).  Units of
fixed work then run back to back (a closed loop with one caller) until
`--seconds` have passed.  With `--trace 1`, untraced and traced units
alternate so the tracing overhead is measured in the same process.  The last
line of output is one JSON object for run.py.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402  (imports NumPy, the package's first import too)

HERE = Path(__file__).resolve().parent
WORKDIR = HERE / "_work"
sys.path.insert(0, str(HERE.parent / "src"))

# calibration ticks sample the machine's speed during set-up as well
_SETUP_SAMPLER = calibrate.Sampler().__enter__()


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _latency_figures(latency):
    """(name, value, unit) rows of the per-call latencies a workload timed."""
    import numpy as np

    rows = []
    for key, name, scale, unit in (("default", "solve", 1e6, "us"), ("homotopy", "homotopy", 1e3, "ms")):
        values = latency.get(key, [])
        if values:
            rows.append((f"{name}_p50_{unit}", float(np.percentile(values, 50)) * scale, unit))
            rows.append((f"{name}_p99_{unit}", float(np.percentile(values, 99)) * scale, unit))
            rows.append((f"{name}_samples", len(values), "count"))
    return rows


def main(argv=None):
    args = _parse_args(argv)
    WORKDIR.mkdir(exist_ok=True)
    import machine
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    elapsed = time.perf_counter() - _START
    _SETUP_SAMPLER.__exit__(None, None, None)
    setup_raw, setup_s = _SETUP_SAMPLER.scaled(elapsed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = ([], []), ([], [])  # (raw, reference) seconds per unit
    attempted = failed = 0
    latency = {"default": [], "homotopy": []}
    out_bytes = 0
    begin = time.perf_counter()
    while True:
        is_traced = tracer is not None and len(untraced[0]) > len(traced[0])
        with contextlib.ExitStack() as stack:
            unit = workload.run
            if is_traced:
                stack.enter_context(tracing.patched(tracer))
                unit = tracer.wrap(unit, "bench.unit")
            sampler = stack.enter_context(calibrate.Sampler(tracer.wrap if is_traced else None))
            start = time.perf_counter()
            output = unit()
            elapsed = time.perf_counter() - start
        for times, value in zip(traced if is_traced else untraced, sampler.scaled(elapsed)):
            times.append(value)
        if not is_traced:
            for key, values in getattr(workload, "latency", {}).items():
                latency[key].extend(values)
        a, f = workload.check(output)
        attempted += a
        failed += f
        if hasattr(workload, "out_path"):
            out_bytes = workload.out_path.stat().st_size
        if time.perf_counter() - begin >= args.seconds and (tracer is None or traced[0]):
            break

    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "wall_s": statistics.median(untraced[1]),
        "wall_raw_s": statistics.median(untraced[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": attempted,
        "failed": failed,
        "units": len(untraced[0]),
        "latency": _latency_figures(latency),
        "machine": machine.record(int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))),
    }
    if tracer is not None:
        tracer.write(WORKDIR / f"spans-{args.workload}.json")
        layers = tracing.layer_metrics(tracer.spans, len(traced[0]))
        layers["cli.bytes_written"] = out_bytes
        layers["trace.overhead_s"] = statistics.median(traced[1]) - statistics.median(untraced[1])
        result["layers"] = layers
        result["traced_units"] = len(traced[0])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
