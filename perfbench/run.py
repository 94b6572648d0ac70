"""Repository benchmark: time real `dmt` workloads end to end and by layer.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

Works from any directory.  It runs the dsdmt package found in the ``src``
directory next to this one and refuses to run without it, so an installed
copy is never measured by mistake.  Each workload runs in a fresh workload
process (workload.py) with the BLAS threads capped so that computing
processes times threads stays within the CPU count.  Set-up is timed on
several fresh interpreters, the last of which then runs the passes.
wall_s and cpu_s are calibrated pass times: each segment of about a second
of a pass is scaled by the speed of a fixed reference loop timed around it
(calibrate.py), because the shared host's speed drifts; the raw times are in
the results file.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics of BENCHMARK.json with --trace 0,
its per_layer metrics with --trace 1.  The lines before it print the same
metrics by name and unit.  Every run also writes a results file under
perfbench/results/ with an environment block, the per-pass times and the
check details.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workload as wl
from calibrate import calibrated

BENCH = wl.BENCH
ROOT = wl.ROOT
# set-up is sampled on fresh interpreters: at least SETUP_MIN times, and
# more while the samples so far took under SETUP_BUDGET_S (cheap set-ups
# are the noisiest)
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.0
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The workload process failed or produced no result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_cap(workload: str) -> int:
    return max(1, nproc() // wl.processes(workload))


def _start(cmd, env):
    """Start a workload process; return it with the seconds until it printed ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload process did not get ready (exit {proc.returncode})")
    return proc, elapsed


def _finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload process ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    return out


def measure(workload: str, seed: int, seconds: float, trace: int):
    """(child result, set-up samples) for one workload."""
    env = dict(os.environ)
    env.update({var: str(blas_cap(workload)) for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload, "--seed", str(seed)]
    setups = []
    while len(setups) < SETUP_MIN - 1 or (len(setups) < SETUP_MAX - 1
                                          and sum(setups) < SETUP_BUDGET_S):
        proc, elapsed = _start(cmd + ["--setup-only"], env)
        _finish(proc)
        setups.append(elapsed)
    proc, elapsed = _start(cmd + ["--seconds", str(seconds), "--trace", str(trace)], env)
    setups.append(elapsed)
    lines = _finish(proc).strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return json.loads(lines[-1]), setups


def git_revision():
    """(revision, dirty) of the checkout, or (None, None) outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)

    try:
        rev = git("rev-parse", "HEAD")
        if rev.returncode != 0:
            return None, None
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return rev.stdout.strip(), bool(status.stdout.strip())


def environment(workload: str, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        blas_name = blas_version = None
    rev, dirty = git_revision()
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_thread_cap": blas_cap(workload),
        "computing_processes": wl.processes(workload),
        "nproc": nproc(),
        "machine": platform.machine(),
        "mp_start_method": multiprocessing.get_start_method(),
        "git_revision": rev,
        "git_dirty": dirty,
        "seed": seed,
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int):
    """(result line object, human-readable lines) for one workload."""
    child, setups = measure(workload, seed, seconds, trace)
    main = child["passes"]["main"]
    if trace:
        declared, values = spec["per_layer"], child["layers"]
    else:
        declared = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(calibrated(main["wall_s"], main["ref_wall_s"])),
            "cpu_s": statistics.median(calibrated(main["cpu_s"], main["ref_cpu_s"])),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
        }
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # a per-layer metric of a layer this workload leaves idle reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    correct = child["failed"] == 0 and child["attempted"] > 0
    result = {"correct": correct, "attempted": child["attempted"], "failed": child["failed"],
              "metrics": metrics}

    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "environment": environment(workload, seed),
        "run_seconds": seconds,
        "trace": trace,
        "setup_samples_s": setups,
        "passes": child["passes"],
        "checks": {k: child[k] for k in ("attempted", "failed", "problems", "tolerated_flips")},
        "result": result,
    }, indent=2) + "\n")

    lines = [f"{workload}: seed {seed}, {len(main['wall_s'])} untraced passes, "
             f"results in {path.relative_to(ROOT)}",
             f"  raw median pass {statistics.median(main['wall_s']):.4g} s wall, "
             f"{statistics.median(main['cpu_s']):.4g} s CPU; "
             f"median reference loop {statistics.median(main['ref_wall_s']):.4g} s wall, "
             f"{statistics.median(main['ref_cpu_s']):.4g} s CPU"]
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"  {'fail_ratio':<40} {child['failed'] / max(child['attempted'], 1):>14.6g} "
                 f"ratio ({child['failed']} of {child['attempted']} operations)")
    lines += [f"  problem: {p}" for p in child["problems"]]
    lines += [f"  tolerated flip: {f}" for f in child["tolerated_flips"]]
    return result, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run the dsdmt benchmark on one workload or all.")
    p.add_argument("--workload", choices=wl.WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if not (wl.SRC / "dsdmt" / "__init__.py").is_file():
        print(f"error: no dsdmt package under {wl.SRC}", file=sys.stderr)
        return 2

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(spec, name, args.seed, seconds, args.trace)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
