"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/prove.py --workloads study_d3,large_d --seeds 10 [--out FILE]

For each workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to a
third of the metric's bound.  With --out it writes those figures together
with the machine record and the commit measured.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import machine  # noqa: E402
import run  # noqa: E402


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="spread of the benchmark over seeds")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        durations = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            durations.append(time.perf_counter() - start)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        report[workload] = {"run_s_max": max(durations), "metrics": {}}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            report[workload]["metrics"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals,
            }
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"{workload:13s} {name:12s} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} (bound/3 {bounds[name] / 3:.4f}) {flag}", flush=True)
            print("    values " + " ".join(f"{v:.4g}" for v in vals), flush=True)
        print(f"{workload:13s} longest run {max(durations):.1f} s", flush=True)
    if args.out:
        record = {
            "commit": _commit(),
            "machine": machine.record(run.BLAS_THREADS),
            "run_seconds": args.seconds,
            "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
            "workloads": report,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
