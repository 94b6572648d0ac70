"""Command-line surface.

    dmt curve      --triple T,S,R                closed-form tradeoff curve
    dmt crosscheck --max-dim D [--fractional]    closed form vs LP vs greedy
    dmt sim        --triple T,S,R --r R ...      Monte Carlo outage + slope
    dmt verify     --suite NAME ...              lemma / density suites

Exit codes: 0 success, 2 usage error, 3 oracle mismatch, 4 insufficient
tail data, 5 verification failure.  Every run writes a manifest JSON next
to its outputs with the resolved configuration, seed, version and
timestamps, enough to reproduce the outputs byte for byte; `dmt verify`
adds the seconds each suite took.

Rates are handled in nats internally (R = r * ln SNR); slope fits are in
base 10, where the base cancels.  The literal r = 0 outage event has
probability zero, so experiments probing d(0) should use a small proxy
such as --r 0.05.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import itertools
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .dmt_core import (
    ChannelTriple,
    dmt_at,
    dmt_curve,
    is_rayleigh_equivalent,
    max_diversity,
    order_triple,
)
from .exponent_solver import _shape, dmt_via_greedy, dmt_via_lp

USAGE_ERROR = 2
MISMATCH_ERROR = 3
INSUFFICIENT_DATA = 4
VERIFICATION_FAILURE = 5

MAX_SNR_POINTS = 10_000  # the most points an --snr-db grid may have
MIN_SNR_STEP_DB = 1e-6  # the finest --snr-db step; far above the grid's 1e-9 dB rounding
# caps on the work one run may ask for; each pinned workload stays well inside
MAX_SIM_TRIALS = 10_000_000  # per SNR point; drawn in blocks, so memory stays flat
MAX_SIM_DIM = 16  # sim --triple dimensions; a block holds a few n x n x 4096 complex arrays
MAX_CURVE_DIM = 1_000  # curve --triple dimensions; the curve has min(triple) + 1 points
MAX_VERIFY_TRIALS = 1_000_000  # a Wishart fit holds all of its trials at once
MAX_DIM = 28  # crosscheck --max-dim; cases grow as d**4: 681 296 at 28 with --fractional
MAX_DIGITS = 1_000  # verify --digits; the mpmath determinants' time grows steeply with it

# the `dmt verify` suites, in run order; each is a key of lemma_verify.SUITES
VERIFY_SUITES = ("lemma1", "lemma2", "lemma3", "lemma4", "prop1", "wishart")


def _parse_triple(text: str) -> ChannelTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated integers, got {text!r}")
    try:
        values = [int(p) for p in parts]
        return ChannelTriple(*values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_snr_grid(text: str) -> tuple[float, ...]:
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:  # not three parts, or one is not a number
        raise argparse.ArgumentTypeError(f"expected lo:hi:step in dB, got {text!r}") from None
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise argparse.ArgumentTypeError(f"lo, hi and step must be finite, got {text!r}")
    if step < MIN_SNR_STEP_DB or hi < lo:
        raise argparse.ArgumentTypeError(f"need lo <= hi, step >= {MIN_SNR_STEP_DB} dB: {text!r}")
    if (hi - lo) / step >= MAX_SNR_POINTS or step < math.ulp(max(abs(lo), abs(hi))):
        raise argparse.ArgumentTypeError(f"grid {text!r} has over {MAX_SNR_POINTS} points"
                                         " or a step under one ulp of its ends")
    grid = []
    v = lo
    while v <= hi + 1e-9:
        grid.append(round(v, 9))
        v += step
    return tuple(grid)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmt",
        description="Diversity-multiplexing tradeoff of double-scattering MIMO channels.",
    )
    parser.add_argument("--version", action="version", version=f"dmt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="closed-form tradeoff curve")
    p_curve.add_argument("--triple", type=_parse_triple, required=True, metavar="T,S,R")
    p_curve.add_argument("--format", choices=("csv", "json", "both"), default="both")

    p_cross = sub.add_parser("crosscheck", help="closed form vs LP vs greedy sweep")
    p_cross.add_argument("--max-dim", type=int, default=5)
    p_cross.add_argument("--fractional", action="store_true",
                         help="sweep quarter-integer multiplexing gains too")

    # --triple/--r/--snr-db are validated after --config merging, so a config
    # file can supply them
    p_sim = sub.add_parser("sim", help="Monte Carlo outage simulation")
    p_sim.add_argument("--triple", type=_parse_triple, default=None, metavar="T,S,R")
    p_sim.add_argument("--r", type=float, default=None, help="multiplexing gain")
    p_sim.add_argument("--snr-db", type=_parse_snr_grid, default=None, metavar="LO:HI:STEP")
    p_sim.add_argument("--trials", type=int, default=100000)
    p_sim.add_argument("--seed", type=int, default=None,
                       help="RNG seed (falls back to DMT_SEED, then 1)")
    p_sim.add_argument("--corr", default="id", metavar="id|exp:RHO|file:PATH")
    p_sim.add_argument("--workers", type=int, default=1)

    p_ver = sub.add_parser("verify", help="lemma / density verification suites")
    p_ver.add_argument("--suite", default="all", choices=VERIFY_SUITES + ("all",))
    p_ver.add_argument("--trials", type=int, default=10000)
    p_ver.add_argument("--digits", type=int, default=60)
    p_ver.add_argument("--seed", type=int, default=None)

    for name, p in sub.choices.items():
        p.add_argument("--output", default=f"dmt_{name}", help="output prefix")
        p.add_argument("--config", default=None, help="JSON config merged under explicit flags")
        p.set_defaults(_parser=p)  # a usage error names its command: "dmt sim: error: ..."
    return parser


def _merge_config(parser, args, argv):
    """Fill non-explicit options from --config JSON, then the environment.

    Each config entry becomes the flag it names, with the value as its text
    (a list joined by commas; true gives a bare flag, false none), placed
    before the command line's own flags, which therefore win.  The parser
    then reads both, so a config value is accepted exactly when the same
    text on the command line is, and a bad one exits 2 naming its flag.  An
    unreadable config file, one holding no JSON object, a non-integer
    DMT_SEED, and a negative seed, named by where it came from, raise ValueError.
    """
    seed_from = "--seed" if getattr(args, "seed", None) is not None else f"--config {args.config}"
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
            raise ValueError(f"--config {args.config}: {exc}") from None
        if not isinstance(cfg, dict):
            raise ValueError(f"--config {args.config}: expected a JSON object")
        flags = []
        for key, value in cfg.items():
            if not hasattr(args, key.replace("-", "_")) or value is False:
                continue
            flag = "--" + key.replace("_", "-")
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            flags.append(flag if value is True else f"{flag}={text}")
        args = parser.parse_args([argv[0], *flags, *argv[1:]])
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        seed_from, env = "DMT_SEED", os.environ.get("DMT_SEED")
        try:
            args.seed = int(env) if env else 1
        except ValueError:
            raise ValueError(f"DMT_SEED must be an integer, got {env!r}") from None
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"{seed_from}: the seed must be >= 0, got {args.seed}")
    return args


def _check_range(flag, value, low, high):
    if not low <= value <= high:
        raise ValueError(f"{flag} must be {f'>= {low}' if value < low else f'<= {high}'}, "
                         f"got {value}")


def _check(args):
    """The check phase, before any work starts or any file is opened: a bad
    input raises ValueError.  Returns the command's run, bound to what it
    runs on; for `sim`, a SimConfig, whose dataclasses own its checks."""
    folder, name = os.path.split(args.output)  # an empty name would write ".csv"
    if name in ("", ".", "..") or not os.path.isdir(folder or "."):
        raise ValueError(f"--output {args.output}: not a file name in an existing directory")
    if args.command == "curve":
        _check_range("--triple dimensions", max(args.triple.as_tuple()), 1, MAX_CURVE_DIM)
        return functools.partial(cmd_curve, args)
    if args.command == "crosscheck":
        _check_range("--max-dim", args.max_dim, 1, MAX_DIM)
        return functools.partial(cmd_crosscheck, args)
    if args.command == "verify":
        from .lemma_verify import MIN_DIGITS

        _check_range("--trials", args.trials, 1, MAX_VERIFY_TRIALS)
        _check_range("--digits", args.digits, MIN_DIGITS, MAX_DIGITS)
        return functools.partial(cmd_verify, args)
    from . import outage_sim

    missing = [f"--{name}" for name in ("triple", "r", "snr-db")
               if getattr(args, name.replace("-", "_")) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(missing)}")
    _check_range("--triple dimensions", max(args.triple.as_tuple()), 1, MAX_SIM_DIM)
    phis = [_parse_corr(args.corr, dim) for dim in args.triple.as_tuple()]
    spec = outage_sim.make_channel_spec(args.triple, *phis)
    try:
        cfg = outage_sim.SimConfig(spec=spec, snr_grid_db=args.snr_db, r=args.r,
                                   trials=args.trials, seed=args.seed, workers=args.workers)
    except ValueError as exc:  # the message starts with the field; name its flag instead
        field, _, rest = str(exc).partition(" ")
        flag = "--snr-db" if field == "snr_grid_db" else f"--{field}"
        raise ValueError(f"{flag} {rest}") from None
    _check_range("--trials", cfg.trials, 1, MAX_SIM_TRIALS)  # SimConfig holds the floor
    return functools.partial(cmd_sim, args, cfg)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finalize(command_argv, args, started, entries):
    echo = {k: v for k, v in sorted(vars(args).items())
            if k != "command" and not k.startswith("_")}
    if "triple" in echo:
        echo["triple"] = ",".join(map(str, args.triple.as_tuple()))
    _write_json(f"{args.output}.manifest.json", {
        "command": command_argv,
        "config": echo,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        **entries,
        "started": started,
        "finished": _now(),
    })


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def cmd_curve(args) -> tuple[int, dict]:
    curve = dmt_curve(args.triple)
    o = order_triple(args.triple)
    md = max_diversity(args.triple)
    rows = [f"{k},{d}" for k, d in curve.points]
    outputs = []
    if args.format in ("csv", "both"):
        path = f"{args.output}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(["k,d", *rows]) + "\n")
        outputs.append(path)
    if args.format in ("json", "both"):
        path = f"{args.output}.json"
        _write_json(path, {
            "triple": list(args.triple.as_tuple()),
            "ordered": {"m": o.m_small, "n": o.n_mid, "l": o.l_large, "delta": o.delta},
            "points": [list(p) for p in curve.points],
            "rayleigh_equivalent": is_rayleigh_equivalent(args.triple),
            "max_diversity": {"value": md.value, "upper_bound": md.upper_bound,
                              "attained": md.attained},
        })
        outputs.append(path)
    print("\n".join(rows))
    return 0, {"outputs": outputs}


def run_crosscheck(max_dim: int, fractional: bool,
                   closed_form=None, lp=None, greedy=None) -> dict:
    """Sweep all triples with components <= max_dim; the three routes must agree exactly.
    The route callables are injectable for fault-testing, lp as lp(m, n, l, r).  "lp" holds
    the LP route's counts: the distinct exponent LPs (coefficient pairs) the triples pose,
    and the most bits of an entry of their hulls."""
    closed_form = closed_form or (lambda t, r: dmt_at(dmt_curve(t), r))
    lp = lp or dmt_via_lp
    greedy = greedy or dmt_via_greedy
    den = 4 if fractional else 1
    rs = [Fraction(k, den) for k in range(max_dim * den + 1)]  # r = k / den, once per run
    cases, mismatches, hulls = 0, [], {}
    for t in itertools.product(range(1, max_dim + 1), repeat=3):
        m, n, l = t
        s = _shape(max(m, n), min(m, n), l)
        hulls[s.alpha_coeffs, s.beta_coeffs] = s._hull
        for r in rs[: min(t) * den + 1]:
            a, b, c = closed_form(t, r), lp(m, n, l, r), greedy(m, n, l, r)
            cases += 1  # an int pair in lowest terms: equal values have equal pairs
            if not a.as_integer_ratio() == b.as_integer_ratio() == c.as_integer_ratio():
                mismatches.append({"m": m, "n": n, "l": l, "r": str(r),
                                   "closed_form": str(a), "lp": str(b), "greedy": str(c)})
    bits = max(abs(v).bit_length() for hull in hulls.values() for seg in hull for v in seg)
    return {"max_dim": max_dim, "fractional": fractional, "cases": cases,
            "mismatches": mismatches, "lp": {"lps": len(hulls), "max_bits": bits}}


def cmd_crosscheck(args) -> tuple[int, dict]:
    report = run_crosscheck(args.max_dim, args.fractional)
    lp = report.pop("lp")  # the LP route's counts go to the manifest
    path = f"{args.output}.json"
    _write_json(path, report)
    print(f"{len(report['mismatches'])} mismatches / {report['cases']} cases")
    if report["mismatches"]:
        print(f"first counterexample: {report['mismatches'][0]}", file=sys.stderr)
    return (MISMATCH_ERROR if report["mismatches"] else 0), {"outputs": [path], "lp": lp}


def _parse_corr(spec: str, dim: int):
    from . import randmat

    kind, _, value = spec.partition(":")
    try:
        if spec == "id":
            return randmat.identity_correlation(dim)
        if kind == "exp":
            return randmat.exponential_correlation(dim, float(value))
        if kind == "file":
            return randmat.load_correlation_matrix(value)
    except (ValueError, OSError) as exc:
        raise ValueError(f"--corr {spec}: {exc}") from None
    raise ValueError(f"bad --corr value {spec!r}; expected id, exp:RHO or file:PATH")


def cmd_sim(args, cfg) -> tuple[int, dict]:
    from . import outage_sim, randmat

    estimates = outage_sim.run_simulation(cfg)
    csv_path = f"{args.output}.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(outage_sim.estimates_csv_lines(estimates, args.r)) + "\n")
    outputs = [csv_path]
    try:
        fit = outage_sim.fit_slope(estimates)
    except outage_sim.InsufficientDataError as exc:
        print(f"insufficient tail data: {exc}", file=sys.stderr)
        return INSUFFICIENT_DATA, {"outputs": outputs, "stream_layout": randmat.STREAM_LAYOUT}
    json_path = f"{args.output}.json"
    _write_json(json_path, {
        "triple": list(args.triple.as_tuple()),
        "r": args.r,
        "corr": args.corr,
        "slope": fit.slope,
        "stderr": fit.stderr,
        "points_used": fit.points_used,
        "estimates": [
            {"snr_db": e.snr_db, "p_out": e.p_out, "ci_low": e.ci_low,
             "ci_high": e.ci_high, "outages": e.outage_count, "trials": e.trials}
            for e in estimates
        ],
    })
    outputs.append(json_path)
    print(f"slope {fit.slope:.4f} +- {fit.stderr:.4f} over {fit.points_used} points")
    return 0, {"outputs": outputs, "stream_layout": randmat.STREAM_LAYOUT}


def cmd_verify(args) -> tuple[int, dict]:
    from . import lemma_verify, randmat

    suites = VERIFY_SUITES if args.suite == "all" else (args.suite,)
    report = {}
    suite_s = {}
    margins = {}  # the trial suites' smallest margins to the inequality slack, signed
    failed = []
    for name in suites:
        t0 = time.perf_counter()
        try:
            rep = lemma_verify.SUITES[name](args.trials, args.digits, args.seed)
        except lemma_verify.PrecisionLossError as exc:
            rep = {"check": name, "precision_error": str(exc),
                   "violations": [f"precision loss at {args.digits} digits"]}
        suite_s[name] = time.perf_counter() - t0
        if "margin" in rep:
            margins[name] = rep.pop("margin")
        report[name] = rep
        if rep.get("violations"):
            failed.append(name)
    path = f"{args.output}.json"
    _write_json(path, report)
    for name in suites:
        status = "FAIL" if name in failed else "ok"
        print(f"{name}: {status}")
    if failed:
        print(json.dumps({k: report[k] for k in failed}, indent=2, sort_keys=True,
                         default=str), file=sys.stderr)
    entries = {"suite_s": suite_s, "ineq_margin": margins, "stream_layout": randmat.STREAM_LAYOUT}
    return (VERIFICATION_FAILURE if failed else 0), {"outputs": [path], **entries}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            args = _merge_config(parser, args, argv)
            run = _check(args)
        except ValueError as exc:
            args._parser.error(str(exc))  # exit 2, after the command's usage line
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    started = _now()
    try:
        code, entries = run()
        _finalize(argv, args, started, entries)
    except OSError as exc:  # a write that fails during the run
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    raise SystemExit(main())
