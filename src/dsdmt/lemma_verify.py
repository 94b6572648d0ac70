"""Numerical corroboration of the random-matrix facts behind the tradeoff.

Two families of checks:

* exact finite-matrix inequalities (singular values of products, and the
  sandwich sigma_i(M) sigma_min(T) <= sigma_i(TM) <= sigma_i(M) sigma_max(T)),
  verified with a small relative slack against double-precision SVD error;
* high-SNR determinant asymptotics, where the determinants cancel
  catastrophically by construction.  These run in mpmath arbitrary
  precision; the measured exponent is the least-squares slope of
  log(quantity) against log(SNR) over the top half of the grid, the bottom
  half being discarded as pre-asymptotic.

A computed determinant whose magnitude falls within ~12 digits of the
working precision floor (relative to the matrix scale) raises
PrecisionLossError instead of returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpf

from . import randmat
from .randmat import _log_vandermonde, singular_values

__all__ = [
    "PrecisionLossError",
    "ExponentPair",
    "AsymptoticFit",
    "CheckReport",
    "check_lemma4",
    "check_prop1",
    "check_lemma1_exponent",
    "check_lemma2_exponent",
    "check_lemma3_limit",
    "lemma1_predicted_exponent",
    "lemma2_predicted_exponent",
    "lemma4_suite",
    "prop1_suite",
    "lemma1_suite",
    "lemma2_suite",
    "lemma3_suite",
    "wishart_suite",
    "SUITES",
]

INEQ_SLACK = 1e-9
COND_LIMIT = 1e8
_GUARD_DIGITS = 12
MIN_DIGITS = _GUARD_DIGITS + 1  # below it the cancellation floor reaches the matrix scale
_CHUNK = 1024  # trials drawn and checked per stacked call in the trial suites


class PrecisionLossError(RuntimeError):
    """Cancellation ate the working precision; re-run with more digits."""


@dataclass(frozen=True)
class ExponentPair:
    """Ordered exponent vectors with beta_i >= 0 and alpha_i >= beta_i."""

    alpha: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if len(a) != len(b):
            raise ValueError(f"alpha and beta must have equal length, got {len(a)} vs {len(b)}")
        if any(x > y for x, y in zip(a, a[1:])) or any(x > y for x, y in zip(b, b[1:])):
            raise ValueError("alpha and beta must be non-decreasing")
        if any(x < 0 for x in b):
            raise ValueError("beta must be nonnegative")
        if any(x < y for x, y in zip(a, b)):
            raise ValueError("alpha_i >= beta_i required")


@dataclass(frozen=True)
class AsymptoticFit:
    snr_points: tuple[float, ...]
    measured_exponent: float
    predicted_exponent: float
    residual: float

    def __post_init__(self):
        pts = self.snr_points
        if len(pts) < 4 or any(x >= y for x, y in zip(pts, pts[1:])):
            raise ValueError("need at least 4 ascending SNR points")


@dataclass
class CheckReport:
    check: str
    cases: int
    violations: list = field(default_factory=list)
    top_residual: float = -math.inf  # the largest residual, signed; -inf if no trial was tested

    @property
    def worst_residual(self) -> float:
        return max(0.0, self.top_residual)


def _condition_numbers(sv) -> np.ndarray:
    """sigma_max / sigma_min of each descending vector; inf where sigma_min is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[..., 0] / sv[..., -1]
    return np.where(sv[..., -1] == 0, np.inf, cond)


def _report(check, skip, skip_reason, cases, rel, violations) -> CheckReport:
    """CheckReport of a stack of trials.

    skip is the per-trial mask of skipped trials, cases the cases per trial,
    rel the residuals per trial and violations maps a trial to its list.  A
    skipped trial tests nothing: it counts no cases and is listed as
    {"trial": t, "skipped": reason}, a failing one as
    {"trial": t, "violations": [...]}.
    """
    keep = ~skip
    found = [{"trial": t, "skipped": skip_reason} for t in np.flatnonzero(skip).tolist()]
    found += [{"trial": t, "violations": v} for t, v in violations.items()]
    # a NaN residual (0/0 at a zero singular value of M) compares with nothing
    top = float(np.fmax.reduce(rel[keep], axis=None, initial=-np.inf))
    return CheckReport(check=check, cases=cases * int(keep.sum()),
                       violations=sorted(found, key=lambda v: v["trial"]), top_residual=top)


def check_lemma4(a, b) -> CheckReport:
    """sigma_{i+j-1}(AB) <= sigma_i(A) sigma_j(B) and the eta counterpart.

    a and b are two stacks of finite m x m matrices with a leading trial
    axis.  A trial with a condition number above COND_LIMIT is skipped.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or b.shape != a.shape:
        raise ValueError(f"need two stacks of square matrices of equal size, "
                         f"got {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):  # the SVD would give NaN
        raise ValueError("matrix entries must be finite")
    m = a.shape[-1]
    sa, sb = singular_values(a), singular_values(b)
    skip = ~((_condition_numbers(sa) <= COND_LIMIT) & (_condition_numbers(sb) <= COND_LIMIT))
    desc = singular_values(a @ b)
    asc, ea, eb = desc[:, ::-1], sa[:, ::-1], sb[:, ::-1]
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 2 - i)]
    ii = np.array([i - 1 for i, _ in pairs])
    jj = np.array([j - 1 for _, j in pairs])
    hi = sa[:, ii] * sb[:, jj]
    lo = ea[:, ii] * eb[:, jj]
    up, dn = desc[:, ii + jj], asc[:, ii + jj]
    with np.errstate(divide="ignore", invalid="ignore"):  # only skipped trials divide by 0
        rel_up = up / hi - 1.0
        rel_dn = 1.0 - dn / lo
    violations = {}
    bad = ~skip & ((rel_up > INEQ_SLACK) | (rel_dn > INEQ_SLACK)).any(axis=1)
    for t in np.flatnonzero(bad).tolist():
        found = violations[t] = []
        for p, (i, j) in enumerate(pairs):
            if rel_up[t, p] > INEQ_SLACK:
                found.append({"kind": "upper", "i": i, "j": j,
                              "lhs": float(up[t, p]), "rhs": float(hi[t, p])})
            if rel_dn[t, p] > INEQ_SLACK:
                found.append({"kind": "lower", "i": i, "j": j,
                              "lhs": float(dn[t, p]), "rhs": float(lo[t, p])})
    return _report("lemma4", skip, f"condition number above {COND_LIMIT:.0e}",
                   2 * len(pairs), np.concatenate((rel_up, rel_dn), axis=1), violations)


def check_prop1(m_mat, t_mat) -> CheckReport:
    """sigma_i(M) sigma_min(T) <= sigma_i(TM) <= sigma_i(M) sigma_max(T).

    m_mat and t_mat are two stacks of finite matrices with a leading trial
    axis.  A trial whose T has a condition number above COND_LIMIT is skipped.
    """
    m_mat = np.asarray(m_mat)
    t_mat = np.asarray(t_mat)
    if (t_mat.ndim != 3 or m_mat.ndim != 3 or t_mat.shape[1] != t_mat.shape[2]
            or t_mat.shape[2] != m_mat.shape[1] or t_mat.shape[0] != m_mat.shape[0]):
        raise ValueError(f"need a stack of square T conformable with the stack of M, "
                         f"got {t_mat.shape}, {m_mat.shape}")
    if not (np.isfinite(m_mat).all() and np.isfinite(t_mat).all()):
        raise ValueError("matrix entries must be finite")
    sm, st = singular_values(m_mat), singular_values(t_mat)
    skip = ~(_condition_numbers(st) <= COND_LIMIT)
    stm = singular_values(t_mat @ m_mat)
    lo, hi = sm * st[:, -1:], sm * st[:, :1]
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.fmax(lo / stm - 1.0, stm / hi - 1.0)
    violations = {}
    for t in np.flatnonzero(~skip & (rel > INEQ_SLACK).any(axis=1)).tolist():
        violations[t] = [{"i": i, "lhs": float(lo[t, i - 1]), "mid": float(stm[t, i - 1]),
                          "rhs": float(hi[t, i - 1])}
                         for i in range(1, rel.shape[1] + 1) if rel[t, i - 1] > INEQ_SLACK]
    return _report("prop1", skip, f"T condition number above {COND_LIMIT:.0e}",
                   rel.shape[1], rel, violations)


def _guarded_logabsdet(mat, digits: int):
    """log |det| in mpmath, guarding against cancellation past the budget."""
    det = mp.det(mat)
    scale = mpf(1)
    rows = mat.rows
    for i in range(rows):
        scale *= max(abs(mat[i, j]) for j in range(mat.cols))
    floor = scale * mpf(10) ** (-(digits - _GUARD_DIGITS))
    if det == 0 or abs(det) < floor:
        raise PrecisionLossError(
            f"|det| = {mp.nstr(abs(det), 5)} below the cancellation floor "
            f"{mp.nstr(floor, 5)} at {digits} digits; increase the precision"
        )
    return mp.log(abs(det))


_DEFAULT_SNR_GRID = tuple(10.0**k for k in range(4, 13))


def _exponent_fit(snrs, rows_at, predicted: float, digits: int) -> AsymptoticFit:
    """Guarded log |det| of the matrix rows_at(mpf(snr)) at every SNR of the
    grid, at the given digits; the LS slope of log10 |det| against
    log10(SNR) over the top half of the grid, as a fit against the
    predicted exponent."""
    half = len(snrs) // 2
    with mp.workdps(digits):
        logs = [_guarded_logabsdet(mp.matrix(rows_at(mpf(snr))), digits) for snr in snrs]
        ys = np.array([float(v) / mp.log(10) for v in logs[half:]], dtype=float)
    xs = np.log10(np.asarray(snrs[half:], dtype=float))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return AsymptoticFit(snr_points=tuple(float(s) for s in snrs[half:]), measured_exponent=slope,
                         predicted_exponent=predicted, residual=abs(slope - predicted))


def lemma1_predicted_exponent(ep: ExponentPair) -> float:
    """-sum over i < j of (alpha_i - beta_j)^+."""
    return -sum(
        max(ep.alpha[i] - ep.beta[j], 0.0)
        for i in range(len(ep.alpha))
        for j in range(i + 1, len(ep.beta))
    )


def check_lemma1_exponent(ep: ExponentPair, snr_grid=None, digits: int = 60) -> AsymptoticFit:
    """Exponent of |det exp(-SNR^-(alpha_j - beta_i))| against its prediction."""
    snrs = tuple(float(s) for s in (snr_grid or _DEFAULT_SNR_GRID))
    l = len(ep.alpha)
    if l > 3:
        raise ValueError(f"determinant evaluation is sized for l <= 3, got l = {l}")
    if any(a <= b for a, b in zip(ep.alpha, ep.beta)):
        raise ValueError("strict alpha_i > beta_i required so the exp factor tends to 1")
    if len(snrs) < 8 or snrs[-1] / snrs[0] < 1e8:
        raise ValueError("snr grid must span at least 8 decades with 8+ points")
    return _exponent_fit(
        snrs, lambda s: [[mp.exp(-(s ** (-(a - b)))) for a in ep.alpha] for b in ep.beta],
        lemma1_predicted_exponent(ep), digits)


def xi_matrix(mu, lam, exp) -> list:
    """The mixed power/exponential matrix driving the n < m density, as rows.

    Rows follow mu; columns are mu^0 .. mu^(p-n-1) followed by
    mu^(p-n-1) * exp(-lam_j / mu) for each of the n lambdas (p = len(mu)).
    For p = n there are no pure power columns and the prefactor is 1/mu.
    """
    p, n = len(mu), len(lam)
    if p < n:
        raise ValueError(f"need len(mu) >= len(lam), got {p} < {n}")
    return [[x**e for e in range(p - n)] + [x ** (p - n - 1) * exp(-y / x) for y in lam]
            for x in mu]


def _logabs_xi_over_vdm(mu, lam, digits: int):
    """log |det Xi(mu, lam)| - log V(mu) in mpmath, guarded."""
    xi = mp.matrix(xi_matrix(mu, lam, mp.exp))
    return _guarded_logabsdet(xi, digits) - _log_vandermonde(mu, mp.log)


def lemma2_predicted_exponent(beta, alpha, l: int, n: int) -> float:
    """Exponent of |det Xi| under mu_i = SNR^-beta_i, lam_j = SNR^-alpha_j.

    Read off the factorized asymptotics: the power columns contribute
    (l-n-1) beta_i for i <= n+1 and (l-i) beta_i beyond, the residual
    exponential blocks contribute every (alpha_i - beta_j)^+ with j > i.
    """
    total = (l - n - 1) * sum(beta[: n + 1])
    total += sum((l - (i + 1)) * beta[i] for i in range(n + 1, l))
    total += sum(
        max(alpha[i] - beta[j], 0.0) for i in range(n) for j in range(n, l)
    )
    total += sum(
        max(alpha[i] - beta[j], 0.0) for i in range(n) for j in range(i + 1, n)
    )
    return -total


def check_lemma2_exponent(mu_exponents, lambda_exponents, dims, snr_grid=None,
                          digits: int = 60) -> AsymptoticFit:
    """Exponent of |det Xi| for the n < l <= m regime against its prediction."""
    m, n, l = dims
    if not n < l <= m:
        raise ValueError(f"need n < l <= m, got (m, n, l) = {dims}")
    if l > 3:
        raise ValueError(f"determinant evaluation is sized for l <= 3, got l = {l}")
    beta = tuple(float(b) for b in mu_exponents)
    alpha = tuple(float(a) for a in lambda_exponents)
    if len(beta) != l or len(alpha) != n:
        raise ValueError(f"expected {l} mu exponents and {n} lambda exponents")
    if any(x > y for x, y in zip(beta, beta[1:])) or any(x > y for x, y in zip(alpha, alpha[1:])):
        raise ValueError("exponent vectors must be non-decreasing")
    if any(alpha[i] <= beta[i] for i in range(n)):
        raise ValueError("strict alpha_i > beta_i required on the coupled range")
    snrs = tuple(float(s) for s in (snr_grid or _DEFAULT_SNR_GRID))
    return _exponent_fit(
        snrs, lambda s: xi_matrix([s ** (-b) for b in beta], [s ** (-a) for a in alpha], mp.exp),
        lemma2_predicted_exponent(beta, alpha, l, n), digits)


_EPS_MULTIPLIERS = (1.0, 0.6, 0.35, 0.2)


def check_lemma3_limit(mu_positive, lam, dims, eps_grid, digits: int = 60) -> dict:
    """Rank-deficient limit: det(Xi)/Vandermonde(mu) with m - l trailing
    eigenvalues at eps * (distinct multipliers) must approach the reduced
    l-row expression as eps -> 0.

    Returns a report with the ratio per eps and the fitted convergence order.
    """
    m, n, l = dims
    if not (l >= n and m > l):
        raise ValueError(f"need l >= n and m > l, got (m, n, l) = {dims}")
    mu_pos = [float(v) for v in mu_positive]
    lam = [float(v) for v in lam]
    if len(mu_pos) != l or len(lam) != n:
        raise ValueError(f"expected {l} positive eigenvalues and {n} lambdas")
    eps_grid = [float(e) for e in eps_grid]
    if any(a <= b for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps grid must be strictly descending")
    if m - l > len(_EPS_MULTIPLIERS):
        raise ValueError(f"at most {len(_EPS_MULTIPLIERS)} trailing eigenvalues supported")
    if max(eps_grid) >= min(mu_pos):
        raise ValueError("eps must stay below the smallest positive eigenvalue")

    ratios = []
    with mp.workdps(digits):
        mu_l = [mpf(v) for v in mu_pos]
        lam_mp = [mpf(v) for v in lam]
        log_rhs = _logabs_xi_over_vdm(mu_l, lam_mp, digits)
        for eps in eps_grid:
            tail = [mpf(eps) * mpf(c) for c in _EPS_MULTIPLIERS[: m - l]]
            log_lhs = _logabs_xi_over_vdm(mu_l + tail, lam_mp, digits)
            ratios.append(float(mp.exp(log_lhs - log_rhs)))
    errors = [abs(rho - 1.0) for rho in ratios]
    if len(eps_grid) >= 2 and all(e > 0 for e in errors):
        order = float(np.polyfit(np.log(eps_grid), np.log(errors), 1)[0])
    else:
        order = float("nan")
    return {
        "check": "lemma3",
        "dims": {"m": m, "n": n, "l": l},
        "eps": eps_grid,
        "ratios": ratios,
        "errors": errors,
        "monotone_decreasing": all(a > b for a, b in zip(errors, errors[1:])),
        "convergence_order": order,
        "precision_digits": digits,
    }


# ---------------------------------------------------------------------------
# Suites: the configured case lists run by `dmt verify` and the acceptance
# tests.

LEMMA1_CASES = {
    "l1-trivial": ExponentPair(alpha=(0.5,), beta=(0.2,)),
    "l2-standard": ExponentPair(alpha=(0.5, 0.9), beta=(0.1, 0.3)),
    "l2-zero": ExponentPair(alpha=(0.2, 0.9), beta=(0.1, 0.3)),
    "l2-hard": ExponentPair(alpha=(2.5, 3.0), beta=(0.1, 0.2)),
    "l3-mixed": ExponentPair(alpha=(0.5, 0.9, 1.3), beta=(0.1, 0.3, 0.6)),
}

LEMMA2_CASES = {
    "m2n1l2": ((2, 1, 2), (0.1, 0.2), (0.5,)),
    "m3n1l2": ((3, 1, 2), (0.1, 0.2), (0.5,)),
    "m3n1l3": ((3, 1, 3), (0.1, 0.2, 0.4), (0.6,)),
    "m3n2l3": ((3, 2, 3), (0.05, 0.15, 0.4), (0.5, 0.8)),
}

LEMMA3_CASES = {
    "m2l1n1": ((2, 1, 1), (1.0,), (1.3,)),
    "m3l2n1": ((3, 1, 2), (2.0, 1.0), (1.5,)),
    "m4l2n2": ((4, 2, 2), (2.0, 1.0), (1.8, 0.9)),
}

EXPONENT_TOL = 0.05
LEMMA3_EPS_GRID = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def _exponent_suite(check: str, fits, digits: int) -> dict:
    """Report over (case name, AsymptoticFit) pairs; a case passes within EXPONENT_TOL."""
    results = {
        name: {
            "measured": fit.measured_exponent,
            "predicted": fit.predicted_exponent,
            "residual": fit.residual,
            "ok": fit.residual <= EXPONENT_TOL,
        }
        for name, fit in fits
    }
    return {
        "check": check,
        "cases": len(results),
        "results": results,
        "violations": [k for k, v in results.items() if not v["ok"]],
        "worst_residual": max((v["residual"] for v in results.values()), default=0.0),
        "precision_digits": digits,
    }


def lemma1_suite(digits: int = 60) -> dict:
    fits = ((name, check_lemma1_exponent(ep, digits=digits)) for name, ep in LEMMA1_CASES.items())
    return _exponent_suite("lemma1", fits, digits)


def lemma2_suite(digits: int = 60) -> dict:
    fits = ((name, check_lemma2_exponent(beta, alpha, dims, digits=digits))
            for name, (dims, beta, alpha) in LEMMA2_CASES.items())
    return _exponent_suite("lemma2", fits, digits)


def lemma3_suite(digits: int = 60) -> dict:
    results = {}
    for name, (dims, mu_pos, lam) in LEMMA3_CASES.items():
        rep = check_lemma3_limit(mu_pos, lam, dims, LEMMA3_EPS_GRID, digits=digits)
        results[name] = dict(rep, ok=rep["monotone_decreasing"] and rep["errors"][-1] < 1e-3)
    return {
        "check": "lemma3",
        "cases": len(results),
        "results": results,
        "violations": [k for k, v in results.items() if not v["ok"]],
        "precision_digits": digits,
    }


def _trial_suite(check: str, run, trials: int, shapes, rng, **shape) -> dict:
    """Run run(*stacks) on chunks of up to _CHUNK trials, each chunk drawn
    with one complex_gaussian_trials call; the trial indices of its
    violations are offset to the whole run.  A skipped trial counts no cases
    and is a violation.  "margin" is INEQ_SLACK less the largest residual, None
    if no trial was tested; `dmt verify` moves it to its manifest."""
    cases = 0
    violations = []
    top = -math.inf
    for first in range(0, trials, _CHUNK):
        rep = run(*randmat.complex_gaussian_trials(min(_CHUNK, trials - first), shapes, rng))
        cases += rep.cases
        top = max(top, rep.top_residual)
        violations += [dict(v, trial=first + v["trial"]) for v in rep.violations]
    return {"check": check, "trials": trials, **shape, "cases": cases, "violations": violations,
            "worst_residual": max(0.0, top), "margin": INEQ_SLACK - top if cases else None}


def lemma4_suite(trials: int, dim: int, rng) -> dict:
    # A, then B; the checks are looked up when a suite runs, so a rebound name is called
    return _trial_suite("lemma4", check_lemma4, trials, [(dim, dim), (dim, dim)], rng, dim=dim)


def prop1_suite(trials: int, dim: int, cols: int, rng) -> dict:
    # T, then M; check_prop1 takes (M, T)
    return _trial_suite("prop1", lambda t, m: check_prop1(m, t), trials,
                        [(dim, dim), (dim, cols)], rng, dim=dim, cols=cols)


def wishart_suite(trials: int, seed: int) -> dict:
    """Density fits for Sigma = I; a fit fails at p <= 0.001.

    A fit with fewer than two pooled bins, or with a non-finite p-value,
    tests nothing and fails with its reason; its non-finite numbers are
    reported as None.
    """
    results = {}
    violations = []
    for m, n in ((1, 1), (2, 2), (1, 2)):
        key = f"{m}x{n}"
        fit = randmat.density_gof_identity(m, n, trials, randmat.stream(seed, (50, m, n)))
        if fit["bins"] < 2:
            violations.append(f"{key}: {fit['bins']} pooled bins, a chi-square fit needs 2; "
                              f"increase --trials")
        elif not math.isfinite(fit["p_value"]):
            violations.append(f"{key}: the p-value is not finite")
        elif fit["p_value"] <= 0.001:
            violations.append(key)
        results[key] = {k: None if isinstance(v, float) and not math.isfinite(v) else v
                        for k, v in fit.items()}
    return {"check": "wishart", "results": results, "violations": violations}


# name -> f(trials, digits, seed), the suites of `dmt verify`.  The suite
# functions are looked up when a suite runs, not when this table is built.
SUITES = {
    "lemma1": lambda trials, digits, seed: lemma1_suite(digits=digits),
    "lemma2": lambda trials, digits, seed: lemma2_suite(digits=digits),
    "lemma3": lambda trials, digits, seed: lemma3_suite(digits=digits),
    "lemma4": lambda trials, digits, seed: lemma4_suite(trials, 4, randmat.stream(seed, 40)),
    "prop1": lambda trials, digits, seed: prop1_suite(trials, 3, 5, randmat.stream(seed, 41)),
    "wishart": lambda trials, digits, seed: wishart_suite(trials, seed),
}
