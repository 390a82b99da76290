"""Run one workload over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload query_1600 --seeds 1 2 3 4 5 --seconds 15

Each run is a fresh ``perfbench/run.py`` process, one after another. For
every metric the script prints the median and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median — the figure to hold below a third of the metric's bound in
``BENCHMARK.json``. ``--out`` also writes every run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {
        m["name"]: m.get("bound")
        for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    }
    runs = []
    for seed in args.seeds:
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", f"{args.seconds:g}",
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
            print(f"seed {seed}: exit {done.returncode}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + "  ".join(
            f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()
        ), flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    if len(runs) < 2:
        return 0
    print(f"{'metric':44s} {'median':>12s} {'iqr/median':>11s} {'bound/3':>8s}")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        third = f"{bound / 3:.4f}" if bound is not None else "-"
        print(f"{name:44s} {median:12.6g} {share:11.4f} {third:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
