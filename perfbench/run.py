"""Benchmark of the noncolliding package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run pins the BLAS threads and
starts one fresh worker process that sets up and runs the workload for S
seconds (see worker.py), with SETUP_PROBES fresh processes that only set up
around it.
It prints each metric by name with its unit and, as the last line, one JSON
object: with --trace 0 the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics.  setup_s is the median over all processes.
wall_s and setup_s are in reference seconds (see calibrate.py); the raw
times are printed as wall_raw_s and setup_raw_s.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BLAS_THREADS = 1
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _worker(argv, env, timeout):
    """Run worker.py to completion; returns (human lines, result dict)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="noncolliding benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "noncolliding" / "__init__.py").is_file():
        raise SystemExit("src/noncolliding is missing: run from the root of a source checkout")

    env = dict(os.environ, **{name: str(BLAS_THREADS) for name in THREAD_VARIABLES})
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # half of the set-up probes run before the worker and half after it, so
    # the median samples the machine over the whole run
    setups = [_worker(common + ["--setup-only"], env, 60)[1] for _ in range(SETUP_PROBES // 2)]
    lines, result = _worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, WORKER_TIMEOUT_S
    )
    setups.append(result)
    setups += [_worker(common + ["--setup-only"], env, 60)[1] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    for line in lines:
        print(line)

    measured = dict(result, setup_s=statistics.median(s["setup_s"] for s in setups))
    if args.trace:
        measured.update(result["layers"])
        declared = spec["per_layer"]
    else:
        declared = spec["end_to_end"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"machine {json.dumps(result['machine'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} units {result['units']} "
          f"setup_samples {len(setups)} blas_threads {BLAS_THREADS}")
    if args.trace:
        print(f"traced_units {result['traced_units']}")
    print(f"failed_fraction {failed / attempted:.6g} (failed {failed} of {attempted})")
    print(f"wall_raw_s {result['wall_raw_s']:.6g} s")
    print(f"setup_raw_s {statistics.median(s['setup_raw_s'] for s in setups):.6g} s")
    for name, value, unit in result["latency"]:
        print(f"{name} {value:.6g} {unit}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {measured[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
