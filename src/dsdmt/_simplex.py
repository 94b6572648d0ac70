"""Exact-arithmetic simplex for the small dense LPs of the exponent solver.

Solves  minimize c.x  subject to  A x <= b,  x >= 0  over the rationals with
the two-phase tableau method.  Bland's pivoting rule rules out cycling, so
optima are exact rationals and the solver always terminates.  Internal to the
package: sized for a few dozen variables, not a general LP surface.

The tableau holds Python ints: a row stands for itself over its basic entry,
kept > 0, and the cost row ends in its own scale.  Pivots are fraction-free
(after Bareiss, Math. Comp. 22, 1968): a row with f = row[pc] != 0 becomes
p*row - f*prow over its gcd.  Every test compares the rationals a Fraction
tableau would, so the pivots, the optimum and x are the ones it would give.

A warm dict carries the optimal tableau of one call on to the next with the
same c and a_ub.  Moving b_i by delta adds delta times the slack-i column to
every rhs, the cost row's too, and leaves the reduced costs >= 0.  If no row's
rhs turns negative the basis stays optimal: the value, and x if asked for, are
read off the shifted rhs, and the tableau stays at its own b.  Else the rows
move, and dual-simplex pivots end optimal or find the LP infeasible; optimal
when b_i only rises (Murty, *Linear Programming*, 1983).  Rows stay primitive
with a positive basic entry, so a move from an older b gives one move's rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["Infeasible", "Unbounded", "solve_min"]


class Infeasible(Exception):
    """The constraint set A x <= b, x >= 0 is empty."""


class Unbounded(Exception):
    """The objective is unbounded below on the feasible set."""


def _exact(v):
    return v if type(v) is int or type(v) is Fraction else Fraction(v)


def _scaled(values):
    """The rationals values times the lcm of their denominators, and that lcm,
    in Python ints (a Fraction keeps a numpy integer as its numerator)."""
    scale = lcm(*[v.denominator for v in values])
    return [int(v.numerator) * (scale // int(v.denominator)) for v in values], scale


def _combine(row, p, f, prow, hot):
    """p*row - f*prow, prow zero outside the columns hot, over its gcd."""
    new = [v * p for v in row] if p != 1 else row[:]
    for j in hot:
        new[j] -= f * prow[j]
    g = gcd(*new)
    return new if g == 1 else [v // g for v in new]


def _pivot(rows, cost, basis, pr, pc):
    """Pivot the tableau on (row pr, column pc), updating the cost row."""
    prow = rows[pr]
    p = prow[pc]
    if p < 0:  # when phase 1 drives out an artificial, and on every dual pivot
        rows[pr] = prow = [-v for v in prow]
        p = -p
    hot = [j for j, v in enumerate(prow) if v]
    for i, row in enumerate(rows):
        if row[pc] and i != pr:
            rows[i] = _combine(row, p, row[pc], prow, hot)
    if cost[pc]:
        cost[:] = _combine(cost, p, cost[pc], prow, hot)
    basis[pr] = pc


def _iterate(rows, cost, basis, ncols):
    """Run Bland-rule pivots until the cost row has no negative reduced cost."""
    while True:
        pc = next((j for j in range(ncols) if cost[j] < 0), None)
        if pc is None:
            return
        pr = None
        for i, row in enumerate(rows):
            a = row[pc]
            if a > 0:
                if pr is not None:  # row[-1] / a against num / den
                    lhs, rhs = row[-1] * den, num * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[pr]):
                        continue
                pr, num, den = i, row[-1], a
        if pr is None:
            raise Unbounded(f"column {pc} has no positive pivot entry")
        _pivot(rows, cost, basis, pr, pc)


def _optimal_tableau(c, a_ub, b_ub):
    """(rows, cost, basis) at the optimum; the columns are x, then the slacks."""
    nvar = len(c)
    m = len(a_ub)
    c = [_exact(v) for v in c]
    b_ub = [_exact(b_ub[i]) for i in range(m)]

    # Rows: [A | slack I | artificials... | rhs].  Rows with negative rhs are
    # negated (slack entry becomes -1) and get an artificial basis column.
    need_art = [i for i in range(m) if b_ub[i] < 0]
    nart = len(need_art)
    ncols = nvar + m + nart
    rows = []
    basis = [nvar + i for i in range(m)]
    for i in range(m):
        row = [_exact(v) for v in a_ub[i]]
        if len(row) != nvar:
            raise ValueError(f"row {i} has {len(row)} entries, expected {nvar}")
        row, scale = _scaled(row + [b_ub[i]])
        row[nvar:nvar] = [0] * (m + nart)
        row[nvar + i] = scale
        if b_ub[i] < 0:
            basis[i] = nvar + m + need_art.index(i)
            row = [-v for v in row]
            row[basis[i]] = scale
        rows.append(row)

    if nart:
        # Phase 1: minimize the sum of artificials, expressed over the
        # current (artificial) basis.
        cost = [0] * (ncols + 1) + [1]
        for i in need_art:
            cost = _combine(cost, rows[i][basis[i]], cost[-1], rows[i], range(ncols + 1))
        cost[nvar + m : ncols] = [0] * nart
        _iterate(rows, cost, basis, ncols)
        if cost[-2] != 0:
            raise Infeasible(f"phase-1 optimum {Fraction(-cost[-2], cost[-1])} > 0")
        # Drive leftover artificials out of the basis.  The slack block of the
        # tableau is B^-1 times a signed identity, so no row of it is zero.
        for i in reversed(range(len(rows))):
            if basis[i] >= nvar + m:
                pc = next(j for j in range(nvar + m) if rows[i][j])
                _pivot(rows, cost, basis, i, pc)
        rows = [row[: nvar + m] + row[-1:] for row in rows]
        ncols = nvar + m

    # Phase 2: reduced costs of c over the current basis.
    cost, scale = _scaled(c)
    cost += [0] * (m + 1) + [scale]
    for i, row in enumerate(rows):
        if cost[basis[i]]:
            cost = _combine(cost, row[basis[i]], cost[basis[i]], row, range(ncols + 1))
    _iterate(rows, cost, basis, ncols)
    return rows, cost, basis


def _dual_iterate(rows, cost, basis, ncols):
    """Run dual Bland pivots until no right-hand side is negative: the
    negative-rhs row of smallest basic index leaves, and the column of least
    cost[j] / |a_j| over a_j < 0 enters, the lowest j on ties."""
    while neg := [i for i, row in enumerate(rows) if row[-1] < 0]:
        pr = min(neg, key=basis.__getitem__)
        prow = rows[pr]
        pc = None
        for j, a in enumerate(prow[:ncols]):
            if a < 0 and (pc is None or cost[j] * prow[pc] > cost[pc] * a):
                pc = j
        if pc is None:
            raise Infeasible(f"row {pr} has a negative right-hand side and no negative entry")
        _pivot(rows, cost, basis, pr, pc)


def _warm_tableau(c, a_ub, b_ub, warm):
    """The optimal tableau, from the one warm holds if that has the same c and
    a_ub, with q > 0 and q times the rhs at b_ub of each row, then the cost row.
    warm then holds the tableau at its own b, or nothing if this raises."""
    # a tuple of tuple rows cannot change, so it is kept as given and compares by identity
    frozen = type(c) is tuple and type(a_ub) is tuple and all(type(r) is tuple for r in a_ub)
    lp = (c, a_ub) if frozen else ([*c], [[*row] for row in a_ub])
    b_ub = [_exact(b_ub[i]) for i in range(len(a_ub))]
    ncols = len(c) + len(a_ub)
    last = warm.pop("last", None)
    if last is None or last[0] != lp:
        last = lp, b_ub, _optimal_tableau(c, a_ub, b_ub)
    _, old, tableau = last
    rows, cost, basis = tableau
    moves = [(slack, *(b - a).as_integer_ratio())
             for slack, (a, b) in enumerate(zip(old, b_ub), len(c)) if a != b]
    q = lcm(*[d for _, _, d in moves])
    rhs = [q * tab[ncols] + sum(p * (q // d) * tab[s] for s, p, d in moves)
           for tab in (*rows, cost)]
    if any(v < 0 for v in rhs[:-1]):  # the basis is no longer feasible: move to b_ub
        for slack, p, d in moves:
            for tab in (*rows, cost):  # d*tab, plus p*tab[slack] in the rhs slot
                if tab[slack]:
                    tab[:] = _combine(tab, d, -p * tab[slack], {ncols: 1}, (ncols,))
        _dual_iterate(rows, cost, basis, ncols)
        last, q, rhs = (lp, b_ub, tableau), 1, [tab[ncols] for tab in (*rows, cost)]
    warm["last"] = last
    return tableau, q, rhs


def _point(rows, basis, rhs, q, nvar):
    """x read off a tableau whose row i stands for rhs[i] / q: a list of Fractions."""
    x = [Fraction(0)] * nvar
    for i, b in enumerate(basis):
        if b < nvar:
            x[b] = Fraction(rhs[i], q * rows[i][b])
    return x


def solve_min(c, a_ub, b_ub, warm=None, *, with_x=True):
    """Minimize c.x subject to a_ub x <= b_ub, x >= 0; exact rationals.

    Entries may be anything ``Fraction`` accepts.  Returns (optimal value, x)
    with x a list of Fractions, or None if with_x is false: then only the
    value is made, one Fraction from the final tableau, with the same pivots.
    Raises :class:`Infeasible` / :class:`Unbounded` accordingly.

    warm, if given, is a dict that keeps the optimal tableau for the next call
    (see above); x may then be another optimal point than a cold solve's.
    """
    if warm is None:
        rows, cost, basis = _optimal_tableau(c, a_ub, b_ub)
        q, rhs = 1, [row[-1] for row in rows] + [cost[-2]]
    else:
        (rows, cost, basis), q, rhs = _warm_tableau(c, a_ub, b_ub, warm)
    x = _point(rows, basis, rhs, q, len(c)) if with_x else None
    return Fraction(-rhs[-1], q * cost[-1]), x
