"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steady.py --workloads crawl archive-churn --seeds 101-110

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
and prints for every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  A run that fails its
checks or exits non-zero is reported and counted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    bad = 0
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            completed = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = completed.returncode == 0 and result.get("correct")
            bad += not ok
            host = next((line for line in lines
                         if line.startswith("host speed:")), "")
            print(f"{workload} seed {seed}: "
                  f"{'ok' if ok else 'FAILED rc=%d' % completed.returncode} "
                  + " ".join(f"{name}={metric['value']:.4g}" for name, metric
                             in result.get("metrics", {}).items())
                  + f" | {host}", flush=True)
            for name, metric in result.get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {len(args.seeds)} seeds")
        print(f"  {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            print(f"  {name:44s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bound if bound is not None else '':>6}")
        print()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
