#!/usr/bin/env python3
"""Run one benchmark workload N times and report the spread of each metric.

Usage, from the repository root:

    python3 hostbench/steady.py --workload kernel-mem4 [--runs 10]
        [--seed 42] [--vary-seed] [--seconds 25] [--trace 0]

Each run is a separate process started with the command in
BENCHMARK.json. By default every run uses the same seed, so the spread is
the run-to-run noise of one input on one build; pass `--seed` to repeat a
claim on a held-out seed. With `--vary-seed` the runs use seed, seed+1,
..., as a benchmark driver that varies the seed would, so the spread also
holds the seed's effect on the work. For every metric it prints the
median, the first and third quartiles (as `statistics.quantiles(values,
n=4)` gives them) and the spread: the interquartile distance as a share of
the median. Against the `bound` of each end-to-end metric in
BENCHMARK.json it marks spreads above a third of the bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    opts = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    failed = attempted = 0
    for i in range(opts.runs):
        seed = opts.seed + i if opts.vary_seed else opts.seed
        result = run_once(spec["command"], opts.workload, seed,
                          opts.seconds, opts.trace)
        attempted += result["attempted"]
        failed += result["failed"]
        if not result["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
            if n in bounds), file=sys.stderr)

    seeds = (f"seeds {opts.seed}..{opts.seed + opts.runs - 1}"
             if opts.vary_seed else f"seed {opts.seed}")
    print(f"{opts.workload}: {opts.runs} runs, {seeds}, {attempted} "
          f"simulations attempted, {failed} failed")
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound/3':>8s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = f"{bound / 3:8.3f}" + (" !" if spread > bound / 3 else "")
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3f} {flag}")


if __name__ == "__main__":
    main()
