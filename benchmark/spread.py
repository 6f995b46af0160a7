"""Run-to-run spread of the benchmark, checked against its bounds.

    python3 benchmark/spread.py --workload NAME [--seeds 1-10] [--seconds S]
                                [--baseline FILE]

Runs benchmark/run.py once per seed, one run at a time, and prints for
each end-to-end metric its median and (Q3 - Q1) / median next to the
bound in BENCHMARK.json (and, without a bound, the metrics the benchmark
records but does not bound).  The values, with each run's environment record,
are saved to benchmark/results/spread-NAME.json; with --baseline pointing
at such a file from an earlier set of runs, it also prints how far the new
median moved from the old one, as a share of the old median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    unbounded = {}
    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: %d of %d items failed" % (seed, result["failed"],
                                                      result["attempted"]))
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        with open(HERE / "results" / ("%s-seed%d-trace0.json" % (args.workload, seed))) as fh:
            record = json.load(fh)
        for name, value in record["details"]["unbounded_metrics"].items():
            unbounded.setdefault(name, []).append(value)
        runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
                     "environment": record["environment"]})
        print("seed %d: %s" % (seed, " ".join("%s=%.4g" % (n, v[-1])
                                             for n, v in values.items())), flush=True)

    old = None
    if args.baseline:
        with open(args.baseline) as fh:
            old = json.load(fh)["values"]
    print("%-14s %12s %8s %8s %s" % ("metric", "median", "spread", "bound",
                                    "median moved" if old else ""))
    for name, vals in values.items():
        med = statistics.median(vals)
        line = "%-14s %12.6g %8.4f %8.2f" % (name, med, stats.quartile_spread(vals),
                                            bounds[name])
        if old:
            line += " %+8.4f" % (med / statistics.median(old[name]) - 1.0)
        print(line)
    for name, vals in unbounded.items():
        print("%-14s %12.6g %8.4f %8s" % (name, statistics.median(vals),
                                          stats.quartile_spread(vals), "none"))
    out = HERE / "results" / ("spread-%s.json" % args.workload)
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"workload": args.workload, "seconds": seconds, "values": values,
                   "unbounded": unbounded, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
