"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/spread.py --runs 10                      # every workload
    python3 perfbench/spread.py --runs 5 --workloads crosscheck
    python3 perfbench/spread.py --runs 10 --trace-runs 1 --out perfbench/baseline.json
    python3 perfbench/spread.py --runs 10 --compare perfbench/baseline.json

For each workload and end-to-end metric it prints the median of the runs
(seeds seed-base, seed-base+1, ...) and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median.  A spread under a third of the metric's bound in BENCHMARK.json is
marked "steady" (set-up time is exempt).  With --compare it also prints how
much worse each median is than in an earlier summary, marked when that
exceeds the bound.  --out writes the summary, with each workload's
environment block (from its first run) and the per-layer metrics of
--trace-runs traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result\n{proc.stdout}")
    return result


def worse_by(metric: dict, old: float, new: float) -> float:
    """Share of the old median by which new is worse (negative when better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="Median and quartile spread of the benchmark over seeds.")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--trace-runs", type=int, default=0)
    p.add_argument("--compare", type=Path, default=None, help="earlier summary to compare with")
    p.add_argument("--out", type=Path, default=None, help="write the summary here")
    args = p.parse_args(argv)
    previous = json.loads(args.compare.read_text())["workloads"] if args.compare else {}

    seconds = spec["run_seconds"]
    seeds = list(range(args.seed_base, args.seed_base + args.runs))
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            row = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                   "bound": metric["bound"], "unit": metric["unit"], "values": values}
            verdict = "steady" if row["spread"] < metric["bound"] / 3 else "WIDE"
            if name == "setup_s":
                verdict = "exempt"
            line = (f"{workload:<11} {name:<12} median {median:10.4f} {metric['unit']:<3} "
                    f"spread {row['spread']:6.3f} (bound {metric['bound']}) {verdict}")
            if workload in previous:
                old = previous[workload]["end_to_end"][name]["median"]
                row["worse_by"] = worse_by(metric, old, median)
                flag = "REGRESSED" if row["worse_by"] > metric["bound"] else "ok"
                line += f"  worse by {row['worse_by']:+.3f} vs compared: {flag}"
            print(line, flush=True)
            rows[name] = row
        first = BENCH / "results" / f"{workload}-seed{seeds[0]}-trace0.json"
        entry = {"environment": json.loads(first.read_text())["environment"],
                 "end_to_end": rows, "attempted": [r["attempted"] for r in runs]}
        traced = [run_once(workload, seed, seconds, 1) for seed in seeds[: args.trace_runs]]
        if traced:
            entry["per_layer"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced)
                for name in traced[0]["metrics"]}
        summary["workloads"][workload] = entry

    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
