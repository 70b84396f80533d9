#!/usr/bin/env python3
"""Run a workload on several seeds and report each end-to-end metric's spread.

The spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles, n=4) as a share of their median; the benchmark is
steady when every spread except setup_s stays within its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workloads cold-solve warm-eval serve-mixed \
        --seeds 1 2 3 4 5 [--seconds 20] [--binary path/to/perfbench]

Without --binary it runs the command from BENCHMARK.json (which builds first).
Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    ap.add_argument("--binary", help="a built perfbench binary, instead of the command")
    args = ap.parse_args()
    command = [args.binary] if args.binary else spec["command"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst_ok = True
    for workload in args.workloads:
        values, shares = {}, set()
        for seed in args.seeds:
            out = subprocess.run(
                command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(args.seconds), "--trace", "0"],
                check=True, capture_output=True, text=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            shares.add(result["failed"] / result["attempted"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct is false", file=sys.stderr)
                worst_ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: failed share(s) {sorted(shares)}")
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = "" if spread <= bound / 3 or name == "setup_s" else "  <-- above a third of its bound"
            print(f"  {name:<20} median {med:<14.6g} spread {spread:7.4f}  bound {bound}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{x:.5g}" for x in xs))
            if spread > bound and name != "setup_s":
                worst_ok = False
    sys.exit(0 if worst_ok else 1)


if __name__ == "__main__":
    main()
