#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage: python3 perfbench/spread.py RUN_OUTPUT...

Each file holds the standard output of one or more untraced runs, one
after another: a run record line followed by its result line. Runs are
grouped by workload. For each metric the script prints the median over
the runs and the distance between the first and third quartile as a
share of the median (statistics.quantiles(n=4)), next to the metric's
bound in BENCHMARK.json; a spread over a third of the bound is flagged.
Exits 1 when any spread exceeds its bound.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(paths):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    runs = defaultdict(list)
    for path in paths:
        record = None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "correct" not in obj:
                    record = obj
                    continue
                if not obj["correct"] or record is None:
                    print(f"{path}: a run was not correct or has no record")
                    return 1
                runs[record["workload"]].append(obj["metrics"])
                record = None
    ok = True
    for workload, results in sorted(runs.items()):
        print(f"== {workload} ({len(results)} runs)")
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in results]
            med = statistics.median(values)
            spread = 0.0
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med)
            flag = ""
            if spread > bound:
                flag, ok = "  OVER BOUND", False
            elif spread > bound / 3:
                flag = "  over a third of bound"
            print(f"  {name:16} median {med:<14.6g} spread {spread:7.4f}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__.strip())
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))
