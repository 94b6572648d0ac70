"""Outage-exponent minimization: the independent route to the tradeoff.

The tradeoff d(r) equals the infimum of the exponent

    eps(alpha, beta) = sum a_i alpha_i + sum b_j beta_j + sum (alpha_i - beta_j)^+

over the outage set {sum (1 - alpha_i)^+ <= r} with both exponent vectors
non-decreasing and alpha_i >= beta_i >= 0 at every alpha index i.  (alpha are
the eigenvalue exponents of the product channel's Gram matrix, beta those of
the scatterer-side Wishart layer; the outage set is taken closed -- the
infimum over the open set is the same and a closed set is LP-representable.)

Two solvers are provided and must agree exactly:

* :func:`solve_lp` -- the exact optimum of that program as a linear program
  (the LP below), read off its Lagrangian envelope.  Without its one row
  sum s_i <= r the LP's rows are totally unimodular (Hoffman and Kruskal,
  1956), so with that row priced by lambda >= 0 an optimum lies at 0/1 step
  vectors: alpha with p leading zeros, beta with q >= p.  Let F(p) be the
  least cost of such a point over q.  By LP duality d(r) = max over lambda of
  min over p of F(p) + lambda (p - r), the lower convex hull of the points
  (p, F(p)) at r, for every real r in [0, alpha_dim] (Geoffrion, *Math.
  Prog. Study* 2, 1974).  tests/test_envelope.py checks both steps on the
  LP's own rows, and the internal simplex (``_simplex``) against the hull.
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
from functools import cached_property, lru_cache
from itertools import accumulate

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

    @cached_property
    def _hull(self):  # the envelope's segment over [k, k + 1], k <= alpha_dim: solve_lp's input
        return _lower_hull(_step_costs(self.alpha_coeffs, self.beta_coeffs))

    @cached_property
    def _lp(self):  # (c, a_ub, b_ub but its last entry): the LP, for the simplex oracle
        return _lp_cost(self.alpha_coeffs, self.beta_coeffs), *_lp_rows(self.alpha_dim,
                                                                        self.beta_dim)


def _plus_pairs(na: int, nb: int) -> tuple[tuple[int, int], ...]:
    """0-based (i, j), i < j, i first then j rising: each contributes
    (alpha_i - beta_j)^+ to the objective."""
    return tuple((i, j) for i in range(na) for j in range(i + 1, nb))


def build_program(m: int, n: int, l: int, r) -> ExponentProgram:
    """Build the exact exponent program for (m, n, l) at multiplexing gain r,
    with n <= m: alpha has min(n, l) components and beta min(m, l)."""
    p = object.__new__(ExponentProgram)  # the checked shape, dimensions before r, with r
    (fields := p.__dict__).update(_shape(m, n, l).__dict__)
    fields["r"] = r if type(r) is Fraction else Fraction(r)
    return p


@lru_cache(maxsize=12288)  # every shape to dims 28: 11368
def _shape(m: int, n: int, l: int) -> ExponentProgram:  # at r = 0, checked once per shape
    if min(m, n, l) < 1:
        raise ValueError(f"dimensions must be positive, got ({m}, {n}, {l})")
    if n > m:
        raise ValueError(f"reciprocity not applied: n={n} > m={m}")
    alpha_dim, beta_dim = min(n, l), min(m, l)
    alpha_coeffs = tuple(n - i for i in range(alpha_dim))
    beta_coeffs = tuple(l + m - n - j if j <= n + 1 else l + m + 1 - 2 * j
                        for j in range(1, beta_dim + 1))  # j 1-based, as in the module note
    shape = ExponentProgram(m, n, l, alpha_dim, beta_dim, alpha_coeffs, beta_coeffs, Fraction(0))
    shape._hull  # read here, so that build_program's copies carry it
    return shape


def _step_costs(a, b):
    """F(p) for p = 0..len(a): the least cost of a 0/1 step vector with sum s_i = p, alpha
    with p leading zeros and beta with q >= p.  It costs the a_i from p on, the b_j from q
    on, and 1 per pair p <= i < na, i < j < q: (q - p)(q - p - 1) / 2 pairs for q <= na,
    and (na - p)(2q - na - p - 1) / 2 beyond.  Suffix sums and those counts, per (p, q)."""
    na, nb = len(a), len(b)
    sa = [*accumulate(reversed(a), initial=0)][::-1]  # sa[p]: the sum of the a_i from p on
    sb = [*accumulate(reversed(b), initial=0)][::-1]
    return [sa[p] + min([sb[q] + (q - p) * (q - p - 1) // 2 for q in range(p, na + 1)]
                        + [sb[q] + (na - p) * (2 * q - na - p - 1) // 2
                           for q in range(na + 1, nb + 1)])
            for p in range(na + 1)]


def _lower_hull(f):
    """The lower convex hull of the points (p, f[p]) (Andrew's monotone chain, the points
    sorted by p) as the segment (x0, f[x0], dx, dy) that holds [k, k + 1], for each k in
    range(len(f) - 1), and the last one again for k = len(f) - 1; one point is a flat one."""
    hull = []
    for p, y in enumerate(f):  # drop the last vertex while it lies on or above the chord
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                 <= (hull[-1][1] - hull[-2][1]) * (p - hull[-2][0])):
            hull.pop()
        hull.append((p, y))
    segments = [(x0, y0, x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])
                for _ in range(x0, x1)] or [(0, f[0], 1, 0)]
    return (*segments, segments[-1])


def _lp_cost(a, b):  # c: the coefficients a and b, then 1 per t and 0 per s
    return (*a, *b, *[1] * len(_plus_pairs(len(a), len(b))), *[0] * len(a))


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
    add([(ofs_s + i, 1) for i in range(na)], None)  # sum s_i <= r, last
    return tuple(rows), tuple(rhs[:-1])


def solve_lp(p: ExponentProgram) -> Fraction:
    """Exact optimum of the exponent program, d(r), for r in [0, alpha_dim].

    Variables are x = [alpha, beta, t (one per plus pair), s (one per alpha)]
    with t_ij >= (alpha_i - beta_j) and s_i >= (1 - alpha_i) relaxed upward,
    so minimization pins them to the plus parts; r is the rhs of the last row,
    sum s_i <= r (``_lp_rows``).  The optimum is the envelope of the module
    note at r, read by r's ints off the hull segment its shape holds.
    """
    na, r = p.alpha_dim, p.r
    num, den = r.as_integer_ratio()
    if not type(num) is type(den) is int:  # a Fraction may keep numpy ints
        num, den = int(num), int(den)
    if not 0 <= num <= na * den:
        raise ValueError(f"r must lie in [0, {na}], got {r}")
    x0, y0, dx, dy = p._hull[num // den]
    return Fraction(y0 * dx * den + dy * (num - x0 * den), dx * den)


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


@lru_cache(maxsize=12288)  # every shape to dims 28: 11368
def _reduced(m: int, n: int, l: int) -> ReducedObjective:  # greedy_reduce, once per shape
    return greedy_reduce(_shape(m, n, l))


def minimize_threshold(ro: ReducedObjective, r) -> Fraction:
    """Minimize sum coeffs_i * alpha_i over the outage set, coefficients sorted.

    With non-increasing coefficients the optimum zeroes the first floor(r)
    alphas, puts the next at 1 - frac(r), and pins the rest at 1.
    """
    dim = len(coeffs := ro.coeffs)
    num, den = (r if type(r) is Fraction else Fraction(r)).as_integer_ratio()  # the sum below
    if not 0 <= num <= dim * den:  # is value * den, in ints
        raise ValueError(f"r must lie in [0, {dim}], got {Fraction(num, den)}")
    if (k := num // den) == dim:
        return Fraction(0)
    return Fraction(sum(coeffs[k + 1 :]) * den + coeffs[k] * ((k + 1) * den - num), den)


def dmt_via_lp(m: int, n: int, l: int, r) -> Fraction:
    """d(r) by the exact linear program, for any role order of (m, n, l): n <= m
    by reciprocity; r as in :func:`solve_lp`."""
    return solve_lp(build_program(m, n, l, r) if n <= m else build_program(n, m, l, r))


def dmt_via_greedy(m: int, n: int, l: int, r) -> Fraction:
    """d(r) by greedy beta elimination plus threshold minimization, on the
    reduction kept per shape; minimize_threshold checks r."""
    return minimize_threshold(_reduced(m, n, l) if n <= m else _reduced(n, m, l), r)
