"""Outage-exponent minimization: the independent route to the tradeoff.

The tradeoff d(r) equals the infimum of the exponent

    eps(alpha, beta) = sum a_i alpha_i + sum b_j beta_j + sum (alpha_i - beta_j)^+

over the outage set {sum (1 - alpha_i)^+ <= r} with both exponent vectors
non-decreasing and alpha_i >= beta_i >= 0 at every alpha index i.  (alpha are
the eigenvalue exponents of the product channel's Gram matrix, beta those of
the scatterer-side Wishart layer; the outage set is taken closed -- the
infimum over the open set is the same and a closed set is LP-representable.)

Two solvers are provided and must agree exactly:

* :func:`solve_lp` -- the exact rational linear program, via the internal
  simplex's dual pivots from the slack basis.  This is the ground-truth oracle.
* :func:`greedy_reduce` + :func:`minimize_threshold` -- the "beta passes
  alpha" elimination: walking each beta leftward through the alpha chain
  while its running coefficient stays positive turns the objective into a
  plain weighted sum of alphas, which a threshold argument then minimizes.

With n <= m enforced by reciprocity, alpha has min(n, l) components and
beta has min(m, l); the paper's three cases (n >= l, n < l <= m and
n <= m < l) are these two minima.  a_i = n - i + 1, and b_j = l + m - n - j
for j <= n + 1 with the slope doubling to b_j = l + m + 1 - 2j beyond
(indices 1-based here; the code stores 0-based tuples).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _simplex

__all__ = [
    "ExponentProgram",
    "ReducedObjective",
    "ReductionInvariantError",
    "build_program",
    "solve_lp",
    "greedy_reduce",
    "minimize_threshold",
    "dmt_via_lp",
    "dmt_via_greedy",
]


class ReductionInvariantError(RuntimeError):
    """The greedy elimination produced coefficients that are not
    non-negative and non-increasing; signals a bookkeeping bug."""


@dataclass(frozen=True)
class ExponentProgram:
    """Exact encoding of the exponent minimization for one (m, n, l, r)."""

    m: int
    n: int
    l: int
    alpha_dim: int
    beta_dim: int
    alpha_coeffs: tuple[int, ...]
    beta_coeffs: tuple[int, ...]
    r: Fraction

    def __post_init__(self):
        if self.alpha_dim != min(self.m, self.n, self.l):
            raise ValueError(
                f"alpha_dim {self.alpha_dim} != min(m,n,l) = {min(self.m, self.n, self.l)}"
            )
        if len(self.alpha_coeffs) != self.alpha_dim or len(self.beta_coeffs) != self.beta_dim:
            raise ValueError("coefficient lengths do not match the declared dimensions")
        if any(b < 0 for b in self.beta_coeffs) or any(a <= 0 for a in self.alpha_coeffs):
            raise ValueError("coefficients out of range")


def _plus_pairs(na: int, nb: int) -> tuple[tuple[int, int], ...]:
    """0-based (i, j), i < j, i first then j rising: each contributes
    (alpha_i - beta_j)^+ to the objective."""
    return tuple((i, j) for i in range(na) for j in range(i + 1, nb))


def build_program(m: int, n: int, l: int, r) -> ExponentProgram:
    """Build the exact exponent program for (m, n, l) at multiplexing gain r,
    with n <= m: alpha has min(n, l) components and beta min(m, l)."""
    p = object.__new__(ExponentProgram)  # the checked shape, dimensions before r, with r
    (fields := p.__dict__).update(vars(_shape(m, n, l)))
    fields["r"] = r if type(r) is Fraction else Fraction(r)
    return p


@lru_cache(maxsize=4096)  # every shape to dims 18: 3078
def _shape(m: int, n: int, l: int) -> ExponentProgram:  # at r = 0, checked once per shape
    if min(m, n, l) < 1:
        raise ValueError(f"dimensions must be positive, got ({m}, {n}, {l})")
    if n > m:
        raise ValueError(f"reciprocity not applied: n={n} > m={m}")
    alpha_dim, beta_dim = min(n, l), min(m, l)
    alpha_coeffs = tuple(n - i for i in range(alpha_dim))
    beta_coeffs = tuple(l + m - n - j if j <= n + 1 else l + m + 1 - 2 * j
                        for j in range(1, beta_dim + 1))  # j 1-based, as in the module note
    return ExponentProgram(m, n, l, alpha_dim, beta_dim, alpha_coeffs, beta_coeffs, Fraction(0))


@lru_cache(maxsize=4096)  # every coefficient pair to dims 18 (2109), so each keeps one c
def _lp_cost(a, b):  # c: the coefficients a and b, then 1 per t and 0 per s
    return (*a, *b, *[1] * len(_plus_pairs(len(a), len(b))), *[0] * len(a))


@lru_cache(maxsize=256)  # every (na, nb) to dims 18 (171), so a lookup finds its a_ub by identity
def _lp_rows(na, nb):
    """a_ub and b_ub but for its last entry, the r of sum s_i <= r; one tuple each."""
    pairs = _plus_pairs(na, nb)
    npair = len(pairs)
    nvar = na + nb + npair + na
    ofs_b, ofs_t, ofs_s = na, na + nb, na + nb + npair
    rows, rhs = [], []

    def add(coeffs, bound):
        row = [0] * nvar
        for idx, v in coeffs:
            row[idx] += v
        rows.append(tuple(row))
        rhs.append(bound)

    for k, (i, j) in enumerate(pairs):  # alpha_i - beta_j - t_ij <= 0
        add([(i, 1), (ofs_b + j, -1), (ofs_t + k, -1)], 0)
    for i in range(na):  # 1 - alpha_i - s_i <= 0
        add([(i, -1), (ofs_s + i, -1)], -1)
    for i in range(na - 1):  # alpha chain
        add([(i, 1), (i + 1, -1)], 0)
    for j in range(nb - 1):  # beta chain
        add([(ofs_b + j, 1), (ofs_b + j + 1, -1)], 0)
    for i in range(na):  # beta_i <= alpha_i
        add([(ofs_b + i, 1), (i, -1)], 0)
    add([(ofs_s + i, 1) for i in range(na)], None)  # sum s_i <= r, last: the swept t
    return tuple(rows), tuple(rhs[:-1])


def solve_lp(p: ExponentProgram, warm=None) -> Fraction:
    """Exact optimum of the exponent program, d(r), for r in [0, alpha_dim].

    Variables are x = [alpha, beta, t (one per plus pair), s (one per alpha)]
    with t_ij >= (alpha_i - beta_j) and s_i >= (1 - alpha_i) relaxed upward,
    so minimization pins them to the plus parts.  r is only the rhs of the row
    sum s_i <= r, so warm (see ``_simplex.solve_min``) serves one coefficient
    pair, swept over r in [0, alpha_dim]: c is one tuple per pair, the rows one
    per size.  r is checked against that range by its ints.
    """
    na, r = p.alpha_dim, p.r
    num, den = r.as_integer_ratio()
    if not 0 <= num <= na * den:
        raise ValueError(f"r must lie in [0, {na}], got {r}")
    c, (rows, fixed) = _lp_cost(p.alpha_coeffs, p.beta_coeffs), _lp_rows(na, p.beta_dim)
    try:
        return _simplex.solve_min(c, rows, [*fixed, r], warm, span=(0, na))
    except _simplex.Infeasible as exc:  # impossible for r >= 0
        raise RuntimeError(f"exponent LP unexpectedly infeasible: {exc}") from exc


@dataclass(frozen=True)
class ReducedObjective:
    """Alpha coefficients after the betas have been optimally eliminated."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.coeffs):
            raise ReductionInvariantError(f"negative reduced coefficient: {self.coeffs}")
        if any(a < b for a, b in zip(self.coeffs, self.coeffs[1:])):
            raise ReductionInvariantError(f"coefficients not non-increasing: {self.coeffs}")


def greedy_reduce(p: ExponentProgram) -> ReducedObjective:
    """Eliminate the betas by the leftward-passing procedure.

    Starting from the interleaved chain 0 <= beta_1 = alpha_1 <= ... every
    beta_j walks left past alpha_{j-1}, alpha_{j-2}, ... while its running
    coefficient (initially b_j, down 1 per pass) is still positive and a
    plus pair (i, j) exists (i < j, i < alpha_dim); each pass adds 1 to
    that alpha's coefficient.
    A beta whose coefficient is still positive after all passes drops to 0;
    one whose coefficient hits 0 parks where it is.  The decrements are
    counted explicitly rather than taken from any closed-form final value.
    """
    passes = [0] * len(p.alpha_coeffs)
    for j, coeff in enumerate(p.beta_coeffs):
        for i in reversed(range(min(j, len(p.alpha_coeffs)))):
            if coeff <= 0:
                break
            passes[i] += 1
            coeff -= 1
    return ReducedObjective(tuple(a + extra for a, extra in zip(p.alpha_coeffs, passes)))


@lru_cache(maxsize=4096)  # every shape to dims 18: 3078
def _reduced(m: int, n: int, l: int) -> ReducedObjective:  # greedy_reduce, once per shape
    return greedy_reduce(_shape(m, n, l))


def minimize_threshold(ro: ReducedObjective, r) -> Fraction:
    """Minimize sum coeffs_i * alpha_i over the outage set, coefficients sorted.

    With non-increasing coefficients the optimum zeroes the first floor(r)
    alphas, puts the next at 1 - frac(r), and pins the rest at 1.
    """
    coeffs, dim = ro.coeffs, len(ro.coeffs)
    num, den = (r if type(r) is Fraction else Fraction(r)).as_integer_ratio()  # the sum below
    if not 0 <= num <= dim * den:  # is value * den, in ints
        raise ValueError(f"r must lie in [0, {dim}], got {Fraction(num, den)}")
    k = num // den
    value = sum(coeffs[k + 1 :]) * den
    if k < dim:
        value += coeffs[k] * ((k + 1) * den - num)
    return Fraction(value, den)


def dmt_via_lp(m: int, n: int, l: int, r, warm=None) -> Fraction:
    """d(r) by the exact linear program, for any role order of (m, n, l): n <= m
    by reciprocity; r and warm as in :func:`solve_lp`."""
    return solve_lp(build_program(m, n, l, r) if n <= m else build_program(n, m, l, r), warm)


def dmt_via_greedy(m: int, n: int, l: int, r) -> Fraction:
    """d(r) by greedy beta elimination plus threshold minimization, on the
    reduction kept per shape; minimize_threshold checks r."""
    return minimize_threshold(_reduced(m, n, l) if n <= m else _reduced(n, m, l), r)
