"""Exact-arithmetic simplex for the small dense LPs of the exponent solver.

Solves  minimize c.x  subject to  A x <= b,  x >= 0  over the rationals, for
c >= 0 only: then c.x >= 0, so no LP it accepts is unbounded, and the slack
basis is dual feasible.  A new LP starts there and runs dual pivots until no
right-hand side is negative, or a row shows that no point exists (Lemke,
*Naval Res. Logist. Q.* 1, 1954).  Bland's rules rule out cycling, so optima
are exact rationals and the solver always terminates.  Internal to the
package: sized for a few dozen variables, not a general LP surface.  The exact
LP route (``exponent_solver.solve_lp``) reads the LP's optimum off its
Lagrangian envelope and calls no simplex; this one is the reference the tests
check that envelope against, a cold solve per call.

The tableau holds Python ints: a row stands for itself over its basic entry, kept > 0, and
the cost row ends in its own scale.  A new LP's c, and its b with the rows, go in as they
are when one type pass finds ints alone; any other entry is read as an exact rational and
scaled to ints first.  Pivots are fraction-free (Bareiss, Math. Comp. 22, 1968) and in
place: a row with f = row[pc] != 0 becomes p*row - f*prow over its gcd, mostly in prow's
nonzero columns alone.  Every test compares the rationals a Fraction tableau would, so the
pivots and the optimum are the ones it would give.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count, repeat
from math import gcd, lcm
from operator import itemgetter, lt

__all__ = ["Infeasible", "solve_min"]


class Infeasible(Exception):
    """The constraint set A x <= b, x >= 0 is empty."""


def _exact(v):
    return v if type(v) is int or type(v) is Fraction else Fraction(v)


def _scaled(values):
    """The rationals values times the lcm of their denominators, and that lcm,
    in Python ints (a Fraction keeps a numpy integer as its numerator); ints as they are."""
    if {*map(type, values)} <= {int}:
        return [*values], 1
    scale = lcm(*[v.denominator for v in values])
    return [int(v.numerator) * (scale // int(v.denominator)) for v in values], scale


def _combine(row, p, f, prow, hot, lead=0):
    """row = p*row - f*prow over its gcd, in place, prow zero off the columns hot, lead 0 or an
    entry of the new row off them: the others are read if p != 1 or lead and hot share a factor."""
    if p != 1:
        for j in compress(count(), row):
            row[j] *= p
    for j in hot:
        row[j] -= f * prow[j]
    if lead != 1 and gcd(lead, *[row[j] for j in hot]) != 1:  # lists: gcd(*map(...)) would
        nz = [*compress(count(), row)]  # leave a tuple in the free list on every call
        if (g := gcd(*[row[j] for j in nz])) > 1:
            for j in nz:
                row[j] //= g
    return row


def _pivot(rows, cost, basis, pr, pc):
    """Pivot the tableau on (row pr, column pc) in place, updating the cost row."""
    prow = rows[pr]
    hot = [*compress(count(), prow)]
    if (p := prow[pc]) < 0:  # on every dual pivot
        for j in hot:
            prow[j] = -prow[j]
        p = -p
    for i in compress(count(), map(itemgetter(pc), rows)):
        if i != pr:  # its basic entry is off hot, so the new row holds p times it
            _combine(rows[i], p, rows[i][pc], prow, hot, p * rows[i][basis[i]])
    if cost[pc]:  # and the new cost row p times its scale
        _combine(cost, p, cost[pc], prow, hot, p * cost[-1])
    basis[pr] = pc


def _slack_rows(nvar, a_ub, b_ub):
    """b, then a_ub, read exactly: the rows [A | slack I | rhs] and the slack basis."""
    m = len(a_ub)
    ints = len(b_ub) == m and {*map(type, chain(b_ub, *a_ub))} <= {int}
    b_ub, zeros, rows = b_ub if ints else [_exact(b_ub[i]) for i in range(m)], [0] * m, []
    for i, b in enumerate(b_ub):
        if ints:
            row, scale = [*a_ub[i], *zeros, b], 1
        else:
            row, scale = _scaled([*map(_exact, a_ub[i]), b])
            row[-1:-1] = zeros
        if len(row) != nvar + m + 1:
            raise ValueError(f"row {i} has {len(row) - m - 1} entries, expected {nvar}")
        row[nvar + i] = scale
        rows.append(row)
    return rows, [nvar + i for i in range(m)]


def _dual_start(c, a_ub, b_ub):
    """The optimal tableau (rows, cost, basis) from the slack basis, dual feasible as the exact
    c is >= 0, by dual Bland pivots run until no right-hand side is negative: the negative-rhs
    row of smallest basic index leaves."""
    (rows, basis), (cost, scale) = _slack_rows(len(c), a_ub, b_ub), _scaled(c)
    cost += [0] * (len(rows) + 1) + [scale]
    while neg := [i for i, row in enumerate(rows) if row[-1] < 0]:
        if not _dual_pivot(rows, cost, basis, pr := min(neg, key=basis.__getitem__)):
            raise Infeasible(f"row {pr} has a negative right-hand side and no negative entry")
    return rows, cost, basis


def _dual_pivot(rows, cost, basis, pr):
    """Pivot row pr out, the column of least cost[j] / |a_j| over a_j < 0 in, the lowest j on
    ties; False if no a_j is negative."""
    prow, pc = rows[pr], None
    for j in compress(range(len(prow) - 1), prow):
        if (a := prow[j]) < 0 and (pc is None or cost[j] * prow[pc] > cost[pc] * a):
            pc = j
    if pc is not None:
        _pivot(rows, cost, basis, pr, pc)
    return pc is not None


def solve_min(c, a_ub, b_ub):
    """Minimize c.x subject to a_ub x <= b_ub, x >= 0; exact rationals.

    Entries may be anything ``Fraction`` accepts, and c must be >= 0, so the
    value is too.  Returns the optimal value, one Fraction, read off the cost
    row of the optimal tableau.  Raises :class:`Infeasible` if no x is
    feasible, and ValueError, before any pivot, if an entry of c is negative.
    """
    c = [*map(_exact, c)]
    if (j := next(compress(count(), map(lt, c, repeat(0))), None)) is not None:
        raise ValueError(f"c[{j}] = {c[j]} is negative; only c >= 0 is solved")
    cost = _dual_start(c, a_ub, b_ub)[1]
    return Fraction(-cost[-2], cost[-1])
