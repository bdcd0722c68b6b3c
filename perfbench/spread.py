#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py --seeds 1-10 [--workloads sample-1e5 ...]
        [--seconds 20] [--trace-seed 1] [--out perfbench/baseline.json]

Runs ``run.py`` once per (workload, seed), one process at a time, and
prints for each end-to-end metric the median of its values and the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median, beside the metric's bound.  The spread
of every metric but ``setup_s`` must stay within its bound; aim for a
third of it.  ``--trace-seed`` adds one traced run per workload, and
``--out`` writes every value, median and spread with the environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600, check=True).stdout
    lines = out.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    names = [n for n, _ in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {n: b for n, _, _, b in spec.END_TO_END}
    record = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {n: [] for n in bounds}
        for seed in seeds:
            result, env = run(workload, seed, args.seconds, 0)
            status |= not result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        entry = {"end_to_end": {}}
        for name, vals in values.items():
            med, q1, q3, share = quartile_spread(vals)
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": share, "values": vals,
            }
            flag = "" if name == "setup_s" or share <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:<14} median {med:<14.6g} spread {share:.4f}"
                  f" bound {bounds[name]} (third {bounds[name] / 3:.4f}){flag}", flush=True)
        if args.trace_seed is not None:
            result, _ = run(workload, args.trace_seed, args.seconds, 1)
            status |= not result["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        record["workloads"][workload] = entry
        record["environment"] = {k: v for k, v in env.items() if k not in ("workload", "seed", "trace")}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
