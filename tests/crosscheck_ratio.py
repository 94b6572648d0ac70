"""Time ``cli.run_crosscheck(dims, fractional)`` in two checkouts, in alternating fresh processes.

    python tests/crosscheck_ratio.py PARENT CHANGE --dims 16 [--fractional] [--pairs 5] [--repeat K]

PARENT and CHANGE are checkouts of this repository; --parent-dims D runs PARENT at dims D,
to compare a larger run of CHANGE with it.  Each run is a fresh interpreter
that imports ``dsdmt`` from its checkout's ``src`` alone and times the call, not the
imports.  With --repeat K each run makes one untimed call first, then times K calls and
reports their median, so a small change at dims 5 compares below the noise of a single
call.  Pairs alternate which checkout runs first, because the host's speed drifts.
Prints one JSON object: every run, both medians, and the median of the per-pair ratios
change / parent.  Each run also reports its cases and mismatches, and its peak resident
size after the call.  With --tracemalloc each run reports instead the peak that
``tracemalloc`` traced during the call; tracing slows the call, so its times then compare
with nothing.  Standard library only; ``test_crosscheck_ratio.py`` runs it at dims 2,
with and without --repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """
import json, resource, statistics, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
from dsdmt import cli
dims, fractional, traced = int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] == "1"
repeat = int(sys.argv[5])
if repeat:
    cli.run_crosscheck(dims, fractional)
if traced:
    tracemalloc.start()
times = []
for _ in range(repeat or 1):
    start = time.perf_counter()
    report = cli.run_crosscheck(dims, fractional)
    times.append(time.perf_counter() - start)
out = {"s": statistics.median(times), "cases": report["cases"],
       "mismatches": len(report["mismatches"]),
       "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
if traced:
    out["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
print(json.dumps(out))
"""


def run(checkout: Path, dims: int, fractional: bool, traced: bool, repeat: int = 0) -> dict:
    """One fresh, isolated interpreter's run of the crosscheck in checkout: one timed call,
    or with repeat K an untimed call and the median of K timed ones."""
    args = [str(checkout / "src"), str(dims), str(int(fractional)), str(int(traced)),
            str(repeat)]
    done = subprocess.run([sys.executable, "-I", "-c", CHILD, *args],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--parent-dims", type=int)
    p.add_argument("--fractional", action="store_true")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--repeat", type=int, default=0, metavar="K",
                   help="time the median of K calls after one untimed call in each run")
    p.add_argument("--tracemalloc", action="store_true")
    args = p.parse_args(argv)
    if args.repeat < 0:
        p.error("--repeat must be >= 0")
    runs, dims = {"parent": [], "change": []}, {"parent": args.parent_dims or args.dims,
                                                 "change": args.dims}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run(getattr(args, side), dims[side], args.fractional,
                                  args.tracemalloc, args.repeat))
    key = "tracemalloc_peak_mb" if args.tracemalloc else "s"
    print(json.dumps({
        "dims": dims, "fractional": args.fractional, "pairs": args.pairs,
        "repeat": args.repeat, "runs": runs,
        **{f"{side}_median_{key}": statistics.median(r[key] for r in runs[side])
           for side in runs},
        "median_ratio": statistics.median(
            c[key] / p[key] for p, c in zip(runs["parent"], runs["change"])),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
