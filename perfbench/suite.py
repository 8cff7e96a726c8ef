#!/usr/bin/env python3
"""Drives the benchmark command from BENCHMARK.json over several runs.

Run from the repository root:

    python3 perfbench/suite.py all [--seconds S] [--seed N]
        every workload once, untraced: each end-to-end metric with its
        unit and sample count, and the error rate.
    python3 perfbench/suite.py spread --workload W [--runs 10] [--seconds S]
        W (or "all") once per seed 1..runs: the median of each
        end-to-end metric and its spread, the distance between the
        first and third quartile as a share of the median.
    python3 perfbench/suite.py selftest [--seconds S] [--seed N]
        every workload traced twice with the same seed: each count
        metric must repeat exactly. Exits 1 otherwise.

Every run's own verdict checks still apply: a run that fails or prints
"correct": false stops the suite with exit code 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "bytes", "ratio"}


def run(workload, seed, seconds, trace, echo=False):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    if echo:
        print("\n".join(lines[:-1]))
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_all(args):
    for w in WORKLOADS:
        run(w, args.seed, args.seconds, 0, echo=True)


def cmd_spread(args):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for w in workloads:
        runs = [run(w, seed, args.seconds, 0)["metrics"] for seed in range(1, args.runs + 1)]
        for name in bounds:
            values = [r[name]["value"] for r in runs]
            print(f"{w} {name}: median {statistics.median(values):.6g} "
                  f"spread {spread(values):.3f} (bound {bounds[name]}) "
                  f"values {' '.join(f'{v:.6g}' for v in values)}")


def cmd_selftest(args):
    failed = []
    for w in WORKLOADS:
        a, b = (run(w, args.seed, args.seconds, 1)["metrics"] for _ in range(2))
        counts = [name for name, m in a.items() if m["unit"] in COUNT_UNITS]
        differ = [name for name in counts if a[name]["value"] != b[name]["value"]]
        for name in differ:
            print(f"{w} {name}: {a[name]['value']} then {b[name]['value']}")
        print(f"{w}: {len(counts) - len(differ)}/{len(counts)} count metrics repeat")
        failed += differ
    sys.exit(1 if failed else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("all", "spread", "selftest"):
        s = sub.add_parser(name)
        s.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
        s.add_argument("--seed", type=int, default=1)
        if name == "spread":
            s.add_argument("--workload", default="all")
            s.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    {"all": cmd_all, "spread": cmd_spread, "selftest": cmd_selftest}[args.cmd](args)


if __name__ == "__main__":
    main()
