"""Write reference.json: the outputs of the CLI workloads for every input seed.

    python3 perfbench/record.py

Run from the root of a source checkout at the commit whose outputs become
the reference.  The checks compare later outputs with these values to a
relative tolerance far above roundoff (checks.REFERENCE_RTOL).
"""

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def _study(text):
    rows = list(csv.reader(io.StringIO(text)))
    body = rows[1:-2]
    return {
        "levels": [int(r[0]) for r in body],
        "errors": [float(r[1]) for r in body],
        "std_errs": [float(r[2]) for r in body],
        "slope": float(rows[-1][0]),
    }


def _paths(text, paths, n, d):
    table = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
    per_path = [table[p * (n + 1) : (p + 1) * (n + 1)] for p in range(paths)]
    return {
        "terminal": [rows[-1][3 : 3 + d] for rows in per_path],
        "min_gap": [min(row[-1] for row in rows) for rows in per_path],
    }


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for cls in (workloads.StudyD3, workloads.ScalarPaths):
            reference[cls.name] = {}
            for seed in range(workloads.REFERENCE_SEEDS):
                w = cls(seed, workdir, reference=False)
                code = w.run()
                if code != 0:
                    raise SystemExit(f"{cls.name} seed {seed}: exit code {code}")
                text = w.output_text(code)
                if cls is workloads.StudyD3:
                    reference[cls.name][str(seed)] = _study(text)
                else:
                    reference[cls.name][str(seed)] = _paths(text, w.paths, w.n, w.system.d)
                print(cls.name, seed, flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
