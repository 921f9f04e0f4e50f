#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads certify-scale ...]

Runs ``perfbench/run.py`` once per workload and seed, one after another,
and prints per metric the median and the quartile spread
``(Q3 - Q1) / median`` next to the bound in ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        values, attempted, failed = {}, 0, 0
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: seeds {args.seeds}; fail_ratio {failed / attempted} ({failed}/{attempted})")
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            ok = ok and (metric["name"] == "setup_s" or spread <= metric["bound"])
            print(f"  {metric['name']:12} median {median:.6g} {metric['unit']:4} spread {spread:.3f}"
                  f" (bound {metric['bound']}) values {' '.join(f'{v:.4g}' for v in vals)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
