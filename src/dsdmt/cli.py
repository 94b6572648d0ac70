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
from .exponent_solver import dmt_via_greedy, dmt_via_lp

USAGE_ERROR = 2
MISMATCH_ERROR = 3
INSUFFICIENT_DATA = 4
VERIFICATION_FAILURE = 5

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
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:step in dB, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric grid {text!r}") from None
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"need lo <= hi and step > 0, got {text!r}")
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
    p_curve.add_argument("--output", default="dmt_curve", help="output prefix")
    p_curve.add_argument("--format", choices=("csv", "json", "both"), default="both")

    p_cross = sub.add_parser("crosscheck", help="closed form vs LP vs greedy sweep")
    p_cross.add_argument("--max-dim", type=int, default=5)
    p_cross.add_argument("--fractional", action="store_true",
                         help="sweep quarter-integer multiplexing gains too")
    p_cross.add_argument("--output", default="dmt_crosscheck")

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
    p_sim.add_argument("--output", default="dmt_sim")

    p_ver = sub.add_parser("verify", help="lemma / density verification suites")
    p_ver.add_argument("--suite", default="all", choices=VERIFY_SUITES + ("all",))
    p_ver.add_argument("--trials", type=int, default=10000)
    p_ver.add_argument("--digits", type=int, default=60)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--output", default="dmt_verify")

    for p in (p_curve, p_cross, p_sim, p_ver):
        p.add_argument("--config", default=None, help="JSON config merged under explicit flags")
    return parser


def _merge_config(parser, args, argv):
    """Fill non-explicit options from --config JSON, then the environment."""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        given = set()
        for tok in argv:
            if tok.startswith("--"):
                given.add(tok[2:].split("=")[0].replace("-", "_"))
        for key, value in cfg.items():
            dest = key.replace("-", "_")
            if dest in given or not hasattr(args, dest):
                continue
            if dest == "triple":
                value = _parse_triple(value if isinstance(value, str) else ",".join(map(str, value)))
            elif dest == "snr_db":
                value = _parse_snr_grid(value) if isinstance(value, str) \
                    else tuple(float(v) for v in value)
            setattr(args, dest, value)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        env = os.environ.get("DMT_SEED")
        args.seed = int(env) if env else 1
    return args


def _manifest(command_argv, args, outputs) -> dict:
    echo = {
        k: (str(v) if isinstance(v, (Fraction, ChannelTriple)) else v)
        for k, v in sorted(vars(args).items())
        if k != "command" and not k.startswith("_")
    }
    if isinstance(getattr(args, "triple", None), ChannelTriple):
        echo["triple"] = ",".join(map(str, args.triple.as_tuple()))
    return {
        "command": command_argv,
        "config": echo,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "outputs": [str(p) for p in outputs],
    }


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finalize(command_argv, args, outputs, started, **detail):
    man = _manifest(command_argv, args, outputs)
    man.update(detail)
    man["started"] = started
    man["finished"] = _now()
    path = f"{args.output}.manifest.json"
    _write_json(path, man)
    return path


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def cmd_curve(args, argv) -> int:
    started = _now()
    curve = dmt_curve(args.triple)
    o = order_triple(args.triple)
    md = max_diversity(args.triple)
    outputs = []
    if args.format in ("csv", "both"):
        path = f"{args.output}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,d\n")
            for k, d in curve.points:
                fh.write(f"{k},{d}\n")
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
    _finalize(argv, args, outputs, started)
    for k, d in curve.points:
        print(f"{k},{d}")
    return 0


def run_crosscheck(max_dim: int, fractional: bool,
                   closed_form=None, lp=None, greedy=None) -> dict:
    """Sweep all triples with components <= max_dim; the three routes must
    agree exactly.  The route callables are injectable for fault-testing."""
    closed_form = closed_form or (lambda t, r: dmt_at(dmt_curve(t), r))
    lp = lp or dmt_via_lp
    greedy = greedy or dmt_via_greedy
    step = Fraction(1, 4) if fractional else Fraction(1)
    cases = 0
    mismatches = []
    for m, n, l in itertools.product(range(1, max_dim + 1), repeat=3):
        r = Fraction(0)
        top = min(m, n, l)
        while r <= top:
            a = closed_form((m, n, l), r)
            b = lp(m, n, l, r)
            c = greedy(m, n, l, r)
            cases += 1
            if not (a == b == c):
                mismatches.append({
                    "m": m, "n": n, "l": l, "r": str(r),
                    "closed_form": str(a), "lp": str(b), "greedy": str(c),
                })
            r += step
    return {"max_dim": max_dim, "fractional": fractional,
            "cases": cases, "mismatches": mismatches}


def cmd_crosscheck(args, argv) -> int:
    started = _now()
    if args.max_dim < 1:
        print("error: --max-dim must be >= 1", file=sys.stderr)
        return USAGE_ERROR
    report = run_crosscheck(args.max_dim, args.fractional)
    path = f"{args.output}.json"
    _write_json(path, report)
    _finalize(argv, args, [path], started)
    print(f"{len(report['mismatches'])} mismatches / {report['cases']} cases")
    if report["mismatches"]:
        worst = report["mismatches"][0]
        print(f"first counterexample: {worst}", file=sys.stderr)
        return MISMATCH_ERROR
    return 0


def _parse_corr(spec: str, dim: int):
    from . import randmat

    if spec == "id":
        return randmat.identity_correlation(dim)
    if spec.startswith("exp:"):
        return randmat.exponential_correlation(dim, float(spec[4:]))
    if spec.startswith("file:"):
        corr = randmat.load_correlation_matrix(spec[5:])
        if corr.dim != dim:
            raise ValueError(f"correlation file is {corr.dim}x{corr.dim}, expected {dim}x{dim}")
        return corr
    raise ValueError(f"bad --corr value {spec!r}; expected id, exp:RHO or file:PATH")


def cmd_sim(args, argv) -> int:
    from . import outage_sim

    started = _now()
    missing = [name for name in ("triple", "r", "snr_db") if getattr(args, name) is None]
    if missing:
        print(f"error: missing required option(s): {', '.join(missing)}", file=sys.stderr)
        return USAGE_ERROR
    triple = args.triple
    try:
        spec = outage_sim.make_channel_spec(
            triple,
            phi_t=_parse_corr(args.corr, triple.n_t),
            phi_s=_parse_corr(args.corr, triple.n_s),
            phi_r=_parse_corr(args.corr, triple.n_r),
        )
        cfg = outage_sim.SimConfig(
            spec=spec, snr_grid_db=args.snr_db, r=args.r,
            trials=args.trials, seed=args.seed, workers=args.workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    estimates = outage_sim.run_simulation(cfg)
    csv_path = f"{args.output}.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(outage_sim.estimates_csv_lines(estimates, args.r)) + "\n")
    outputs = [csv_path]
    try:
        fit = outage_sim.fit_slope(estimates)
    except outage_sim.InsufficientDataError as exc:
        _finalize(argv, args, outputs, started)
        print(f"insufficient tail data: {exc}", file=sys.stderr)
        return INSUFFICIENT_DATA
    json_path = f"{args.output}.json"
    _write_json(json_path, {
        "triple": list(triple.as_tuple()),
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
    _finalize(argv, args, outputs, started)
    print(f"slope {fit.slope:.4f} +- {fit.stderr:.4f} over {fit.points_used} points")
    return 0


def cmd_verify(args, argv) -> int:
    from . import lemma_verify

    started = _now()
    if args.trials < 1:
        print(f"error: --trials must be >= 1, got {args.trials}", file=sys.stderr)
        return USAGE_ERROR
    if args.digits < lemma_verify.MIN_DIGITS:
        print(f"error: --digits must be >= {lemma_verify.MIN_DIGITS}, got {args.digits}",
              file=sys.stderr)
        return USAGE_ERROR
    suites = VERIFY_SUITES if args.suite == "all" else (args.suite,)
    report = {}
    suite_s = {}
    failed = []
    for name in suites:
        t0 = time.perf_counter()
        try:
            rep = lemma_verify.SUITES[name](args.trials, args.digits, args.seed)
        except lemma_verify.PrecisionLossError as exc:
            rep = {"check": name, "precision_error": str(exc),
                   "violations": [f"precision loss at {args.digits} digits"]}
        suite_s[name] = time.perf_counter() - t0
        report[name] = rep
        if rep.get("violations"):
            failed.append(name)
    path = f"{args.output}.json"
    _write_json(path, report)
    _finalize(argv, args, [path], started, suite_s=suite_s)
    for name in suites:
        status = "FAIL" if name in failed else "ok"
        print(f"{name}: {status}")
    if failed:
        print(json.dumps({k: report[k] for k in failed}, indent=2, sort_keys=True,
                         default=str), file=sys.stderr)
        return VERIFICATION_FAILURE
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _merge_config(parser, args, argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    handlers = {
        "curve": cmd_curve,
        "crosscheck": cmd_crosscheck,
        "sim": cmd_sim,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args, argv)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
