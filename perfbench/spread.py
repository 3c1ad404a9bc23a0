"""Run workloads over several seeds, alternating, and print each end-to-end
metric's median and spread (interquartile distance over the median).

    python3 perfbench/spread.py --workloads probe,certify,cli \
        --seeds 101-110 [--seconds 20]

Each run is the benchmark command itself, run one at a time from the
root of the checkout.  Spreads use statistics.quantiles(values, n=4).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in range(first, last + 1):
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            print(w, seed, json.dumps(result), flush=True)
            if not result["correct"] or result["failed"]:
                return 1
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
    for w in workloads:
        for name, vals in values[w].items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            print(f"{w:10s} {name:12s} median {median:10.4g}  spread {(q3 - q1) / median:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
