"""Run workloads over several seeds and print each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads fit,infer,forecast --seeds 0-9 --seconds 35

For every metric it prints the median over the seeds and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of that median, plus each run's objective and outer iterations from
``perfbench/out/``.  Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", type=lambda text: text.split(","),
                    default=["fit", "infer", "forecast"])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    ap.add_argument("--seconds", default="35")
    args = ap.parse_args()

    for workload in args.workloads:
        _spread(workload, args)


def _spread(workload, args):
    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", args.seconds]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(HERE / "out" / f"result-{workload}-seed{seed}-trace0.json") as fh:
            detail = json.load(fh)
        print(f"{workload} seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']} "
              f"rounds {len(detail['round_s'])} first output {detail['outputs'][0]}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = ""
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"  quartile spread {(q3 - q1) / abs(med):.3f} of the median"
        print(f"{workload} {name} [{result['metrics'][name]['unit']}]: median {med:.6g} "
              f"over {len(vals)} seeds{spread}")


if __name__ == "__main__":
    main()
