"""One workload process: set up, time passes of real `dmt` commands, check them.

Started by run.py, never by hand.  It imports dsdmt from the checkout's
``src`` directory, builds the command lines, and prints ``ready``; run.py
times that as set-up.  With --setup-only it stops there.  Otherwise it runs
passes of the workload's commands in-process through ``dsdmt.cli.main``
while another pass fits in --seconds, checks every pass's outputs, and
prints one JSON line: per-pass wall and CPU times, the reference-loop time
around each pass (calibrate.py), peak memory, the check results and, with
--trace 1, the per-layer metrics.

With --trace 1 the passes alternate untraced and traced, in at least two
cycles whose order is reversed, so the tracing overhead is measured in the
same run and neither kind always runs first.  On sim_corr each cycle also runs the
same commands with one worker, untraced (for the scaling efficiency) and
traced (for the kernel and randmat costs, which the pool workers would
otherwise hide).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("crosscheck", "sim_iid", "sim_corr", "verify")
CROSSCHECK_CASES = 1025
SUITES = ("lemma1", "lemma2", "lemma3", "lemma4", "prop1", "wishart")
# (tag, triple, r, SNR grid lo:hi:step in dB, trials per point)
SIM_IID = (  # criterion 7a and 7b configurations
    ("111", (1, 1, 1), 0.05, "15:40:5", 400_000),
    ("222", (2, 2, 2), 1.0, "10:30:5", 200_000),
)
SIM_CORR = (("222", (2, 2, 2), 1.0, "10:30:5", 200_000),)  # correlated half of 7d
CORR_RHO = 0.7
CORR_WORKERS = 2
# untraced passes are timed in segments, with the reference loop
# (calibrate.py) off the clock between them: a segment ends at the first call
# of one of these dsdmt.<module>.<name> after it has run SEGMENT_S
SEGMENT_S = 1.0
CUTS = {
    "crosscheck": (("cli", "dmt_via_lp"),),  # once per case
    "sim_iid": (("outage_sim", "estimate_outage"),),  # once per SNR point
    "sim_corr": (("outage_sim", "estimate_outage"),),
    "verify": (("lemma_verify", "check_lemma4"), ("lemma_verify", "check_prop1")),  # per trial
}
# the kernel and randmat metrics of sim_corr come from its one-worker passes
W1_PREFIXES = ("outage_sim.kernel.", "randmat.stream.", "randmat.complex_gaussian.")


def sim_configs(workload):
    return {"sim_iid": SIM_IID, "sim_corr": SIM_CORR}.get(workload, ())


def grid_db(spec: str) -> tuple[float, ...]:
    lo, hi, step = (int(v) for v in spec.split(":"))
    return tuple(float(v) for v in range(lo, hi + 1, step))


def processes(workload: str) -> int:
    """Processes that compute at once, for sizing the BLAS thread cap."""
    return CORR_WORKERS if workload == "sim_corr" else 1


def import_program(workload: str):
    """Import the package from the checkout's src; set-up includes lazy imports."""
    if not (SRC / "dsdmt" / "__init__.py").is_file():
        raise SystemExit(f"error: no dsdmt package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dsdmt.cli

    if Path(dsdmt.cli.__file__).resolve().parent != (SRC / "dsdmt").resolve():
        raise SystemExit(f"error: imported dsdmt from {dsdmt.cli.__file__}, not {SRC}")
    if workload.startswith("sim"):
        import dsdmt.outage_sim
        import scipy.stats  # noqa: F401  (imported lazily by fit_slope)
    elif workload == "verify":
        import dsdmt.lemma_verify
        import scipy.stats  # noqa: F401  (imported lazily by density_gof_identity)
    return dsdmt.cli


def commands(workload: str, seed: int, out: Path, workers: int = CORR_WORKERS):
    """[(tag, argv)] for one pass, writing its outputs under out."""
    if workload == "crosscheck":
        return [("", ["crosscheck", "--max-dim", "5", "--fractional",
                      "--output", str(out / "crosscheck")])]
    if workload == "verify":
        return [("", ["verify", "--suite", "all", "--digits", "60", "--seed", str(seed),
                      "--output", str(out / "verify")])]
    cmds = []
    for tag, triple, r, grid, trials in sim_configs(workload):
        argv = ["sim", "--triple", ",".join(map(str, triple)), "--r", str(r), "--snr-db", grid,
                "--trials", str(trials), "--seed", str(seed), "--output", str(out / f"sim{tag}")]
        if workload == "sim_corr":
            argv += ["--corr", f"exp:{CORR_RHO}", "--workers", str(workers)]
        else:
            argv += ["--workers", "1"]
        cmds.append((tag, argv))
    return cmds


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def run_pass(cli, cmds, segments=None, tracer=None):
    """Exit codes of one pass; segments, if given, times it."""
    codes = []
    if segments:
        segments.restart()
    with contextlib.redirect_stdout(io.StringIO()):
        for tag, argv in cmds:
            if tracer is None:
                codes.append(cli.main(argv))
            else:
                tracer.tag = tag
                with tracer.span("cli.main"):
                    codes.append(cli.main(argv))
    if segments:
        segments.cut()
    return codes


def install_cuts(workload: str, segments):
    """Rebind the CUTS names of the workload to wrappers that cut; return undo."""
    import importlib

    saved = []

    def cutting(fn):
        def wrapped(*args, **kwargs):
            if segments.elapsed() >= SEGMENT_S:
                segments.cut()
            return fn(*args, **kwargs)

        return wrapped

    for module, attr in CUTS[workload]:
        owner = importlib.import_module(f"dsdmt.{module}")
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, cutting(getattr(owner, attr)))

    def undo():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)

    return undo


def read_outputs(workload: str, out: Path):
    """The parts of a pass's output files the checks compare."""
    if workload in ("crosscheck", "verify"):
        path = out / f"{workload}.json"
        return json.loads(path.read_text()) if path.is_file() else None
    outputs = {}
    for tag, *_ in sim_configs(workload):
        path = out / f"sim{tag}.csv"
        outputs[tag] = path.read_text() if path.is_file() else None
    return outputs


def sim_oracle(workload: str, seed: int):
    """{(tag, point): (agrees, flips, program block-0 count)} against oracle.py."""
    import oracle
    from dsdmt import outage_sim, randmat

    verdicts = {}
    for tag, triple, r, grid, trials in sim_configs(workload):
        rho = CORR_RHO if workload == "sim_corr" else None
        phis = [randmat.exponential_correlation(d, rho) for d in triple] if rho else [None] * 3
        count = min(outage_sim.BLOCK_TRIALS, trials)
        cfg = outage_sim.SimConfig(spec=outage_sim.make_channel_spec(triple, *phis),
                                   snr_grid_db=grid_db(grid), r=r, trials=count, seed=seed)
        for i, snr_db in enumerate(cfg.snr_grid_db):
            program = outage_sim.estimate_outage(cfg, snr_db).outage_count
            ref, near = oracle.block_count(triple, r, snr_db, i, seed, count, rho)
            agrees, flips = oracle.compare(ref, near, program)
            verdicts[tag, i] = (agrees, flips, program)
    return verdicts


def check_pass(workload: str, codes, outputs, first, verdicts):
    """(attempted, failed, problems) for one pass; first is the first pass's outputs."""
    if workload == "crosscheck":
        rep = outputs
        if codes[0] not in (0, 3) or rep is None or rep["cases"] != CROSSCHECK_CASES:
            got = None if rep is None else rep["cases"]
            return CROSSCHECK_CASES, CROSSCHECK_CASES, [f"exit {codes[0]}, {got} cases"]
        return CROSSCHECK_CASES, len(rep["mismatches"]), rep["mismatches"][:3]
    if workload == "verify":
        rep = outputs
        if codes[0] not in (0, 5) or rep is None:
            return len(SUITES), len(SUITES), [f"exit {codes[0]}"]
        bad = [s for s in SUITES
               if s not in rep or rep[s].get("violations") or "precision_error" in rep[s]]
        return len(SUITES), len(bad), [f"suite {s} failed" for s in bad]
    attempted = failed = 0
    problems = []
    for (tag, triple, r, grid, trials), code in zip(sim_configs(workload), codes):
        rows = (outputs[tag] or "").splitlines()[1:]
        for i, snr_db in enumerate(grid_db(grid)):
            attempted += 1
            why = _sim_point_problem(code, rows, i, snr_db, trials, verdicts[tag, i])
            if why is None and outputs[tag] != first[tag]:
                why = "output differs from the first pass"
            if why:
                failed += 1
                problems.append(f"{tag} {snr_db} dB: {why}")
    return attempted, failed, problems


def _sim_point_problem(code, rows, i, snr_db, trials, verdict):
    agrees, flips, block0 = verdict
    if code != 0:
        return f"exit {code}"
    if i >= len(rows):
        return "missing row"
    snr, _rate, n, outages, p_out, *_ = rows[i].split(",")
    if float(snr) != snr_db or int(n) != trials or float(p_out) != int(outages) / trials:
        return f"inconsistent row {rows[i]!r}"
    if not agrees:
        return f"block 0 count {block0} disagrees with the oracle by {flips}"
    if int(outages) < block0 - flips:
        return f"{outages} outages in all blocks < {block0} in block 0"
    return None


def layer_metrics(tracer, trials_by_tag) -> dict:
    """Per-layer metrics of one traced pass."""
    from tracing import END, NAME, START, TAG, percentile, self_times

    durs = defaultdict(list)
    own = Counter()
    for s, st in zip(tracer.spans, self_times(tracer.spans)):
        for key in (s[NAME], (s[NAME], s[TAG])):
            durs[key].append(s[END] - s[START])
            own[key] += st

    def us(name, q):
        return percentile(durs[name], q) * 1e6

    curve, at = durs["dmt_core.dmt_curve"], durs["dmt_core.dmt_at"]
    closed = [a + b for a, b in zip(curve, at)] if len(curve) == len(at) else []
    m = {
        "simplex.solve_min.calls": len(durs["simplex.solve_min"]),
        "simplex.solve_min.self_s": own["simplex.solve_min"],
        "simplex.solve_min.us_p50": us("simplex.solve_min", 50),
        "simplex.solve_min.us_p99": us("simplex.solve_min", 99),
        "simplex.rows_total": tracer.counts["simplex.rows"],
        "simplex.vars_total": tracer.counts["simplex.vars"],
        "exponent_solver.build_program.self_s": own["exponent_solver.build_program"],
        "exponent_solver.solve_lp.self_s": own["exponent_solver.solve_lp"],
        "exponent_solver.greedy.self_s": own["exponent_solver.greedy"],
        "exponent_solver.dmt_via_lp.us_p50": us("exponent_solver.dmt_via_lp", 50),
        "exponent_solver.dmt_via_lp.us_p99": us("exponent_solver.dmt_via_lp", 99),
        "dmt_core.closed_form.calls": len(at),
        "dmt_core.closed_form.us_p50": percentile(closed, 50) * 1e6,
        "dmt_core.closed_form.us_p99": percentile(closed, 99) * 1e6,
        "outage_sim.pool.creates": len(durs["outage_sim.pool.create"]),
        "outage_sim.pool.lifecycle_s": sum(durs["outage_sim.pool.create"])
        + sum(durs["outage_sim.pool.shutdown"]),
        "randmat.singular_values.calls": len(durs["randmat.singular_values"]),
        "randmat.singular_values.s": sum(durs["randmat.singular_values"]),
        "randmat.density_gof_identity.s": sum(durs["randmat.density_gof_identity"]),
        "lemma_verify.check_lemma4.us_p50": us("lemma_verify.check_lemma4", 50),
        "lemma_verify.check_lemma4.us_p99": us("lemma_verify.check_lemma4", 99),
        "lemma_verify.check_prop1.us_p50": us("lemma_verify.check_prop1", 50),
        "lemma_verify.check_prop1.us_p99": us("lemma_verify.check_prop1", 99),
        "lemma_verify.det.us_per_point": statistics.fmean(durs["lemma_verify.det"]) * 1e6
        if durs["lemma_verify.det"] else 0.0,
        "cli.self_s": own["cli.main"],
    }
    for suite in SUITES[:-1]:
        m[f"lemma_verify.suite_s.{suite}"] = sum(durs[f"lemma_verify.suite.{suite}"])
    if not durs["outage_sim.pool.create"]:
        # one worker: estimate_outage's self time is the kernel (channel
        # product, Gram matrix, eigvalsh, count) without the RNG set-up and draws
        for tag, trials in trials_by_tag.items():
            for name in ("randmat.stream", "randmat.complex_gaussian"):
                m[f"{name}.calls.{tag}"] = len(durs[name, tag])
                m[f"{name}.ns_per_trial.{tag}"] = sum(durs[name, tag]) / trials * 1e9
            m[f"outage_sim.kernel.ns_per_trial.{tag}"] = (
                own["outage_sim.estimate_outage", tag] / trials * 1e9)
    return m


def measure(cli, workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from calibrate import Reference, Segments, calibrated
    from tracing import Tracer, install

    kinds = ["main"]
    if trace:
        kinds.append("main_traced")
        if workload == "sim_corr":
            kinds += ["w1", "w1_traced"]
    trials_by_tag = {tag: trials * len(grid_db(grid))
                     for tag, _t, _r, grid, trials in sim_configs(workload)}
    walls, cpus = defaultdict(list), defaultdict(list)
    ref_walls, ref_cpus = defaultdict(list), defaultdict(list)
    layers = defaultdict(list)
    runs = []  # (kind, codes, outputs)
    if trace:  # an untimed first pass, so lazy set-up is not charged to one kind
        (work / "warmup").mkdir()
        run_pass(cli, commands(workload, seed, work / "warmup"))
    # the reference loop runs before the first pass, at every cut and after
    # every pass; traced passes are not cut, so spans hold no loop time.
    # crosscheck loads no numpy, so its loop leaves numpy out too
    reference = Reference(processes(workload), with_numpy=workload != "crosscheck")
    try:
        segments = Segments(reference, cpu_seconds)
        start = time.perf_counter()
        cycles = []  # durations; after two, a cycle starts only if one of median length fits
        while len(cycles) < 2 or time.perf_counter() - start + statistics.median(cycles) <= seconds:
            cycle_start = time.perf_counter()
            # reverse every other cycle, so no kind always runs first (cold)
            for kind in kinds if len(cycles) % 2 == 0 else kinds[::-1]:
                out = work / f"pass{len(runs)}"
                out.mkdir()
                workers = 1 if kind.startswith("w1") else CORR_WORKERS
                cmds = commands(workload, seed, out, workers)
                tracer = Tracer() if kind.endswith("traced") else None
                undo = install(tracer) if tracer else install_cuts(workload, segments)
                try:
                    codes = run_pass(cli, cmds, segments, tracer)
                finally:
                    undo()
                wall, cpu, ref_wall, ref_cpu = segments.take()
                walls[kind].append(wall)
                cpus[kind].append(cpu)
                ref_walls[kind].append(ref_wall)
                ref_cpus[kind].append(ref_cpu)
                if tracer:
                    layers[kind].append(layer_metrics(tracer, trials_by_tag))
                runs.append((kind, codes, read_outputs(workload, out)))
                shutil.rmtree(out)
            cycles.append(time.perf_counter() - cycle_start)
    finally:
        reference.close()

    verdicts = sim_oracle(workload, seed) if workload.startswith("sim") else {}
    attempted = failed = 0
    problems = []
    first = runs[0][2]
    for kind, codes, outputs in runs:
        a, f, p = check_pass(workload, codes, outputs, first, verdicts)
        attempted, failed = attempted + a, failed + f
        problems += [f"{kind}: {x}" for x in p]
    flips = [{"tag": tag, "point": i, "flips": v[1]} for (tag, i), v in verdicts.items() if v[1]]

    result = {
        "passes": {k: {"wall_s": walls[k], "cpu_s": cpus[k], "ref_wall_s": ref_walls[k],
                       "ref_cpu_s": ref_cpus[k]} for k in kinds},
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "tolerated_flips": flips,
    }
    if trace:
        calibrated_walls = {k: calibrated(walls[k], ref_walls[k]) for k in kinds}
        result["layers"] = combine_layers(workload, calibrated_walls, layers, first)
    return result


def combine_layers(workload, walls, layers, first_outputs) -> dict:
    """Median of each metric over the traced passes, plus the run-level ratios."""

    def med(values):  # keeps an exact count exact
        values = list(values)
        return values[0] if len(set(values)) == 1 else statistics.median(values)

    out = {k: med(p[k] for p in layers["main_traced"]) for k in layers["main_traced"][0]}
    if workload == "sim_corr":
        w1 = layers["w1_traced"]
        out.update({k: med(p[k] for p in w1) for k in w1[0] if k.startswith(W1_PREFIXES)})
        out["outage_sim.scaling_efficiency"] = med(walls["w1"]) / (2 * med(walls["main"]))
    if workload == "crosscheck" and first_outputs is not None:
        out["cli.crosscheck.cases"] = first_outputs["cases"]
    out["bench.trace_overhead_ratio"] = med(walls["main_traced"]) / med(walls["main"])
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child, in MB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    cli = import_program(args.workload)
    scratch = BENCH / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
