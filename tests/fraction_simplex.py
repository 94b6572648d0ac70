"""The Fraction-tableau simplex that ``dsdmt._simplex`` replaced, kept verbatim.

The oracle of ``tests/test_simplex.py``'s differential test: the integer
tableau must take the same Bland pivots, so on every input it must return the
same (value, x) or raise the same exception as this code.  The original
docstring follows.

Exact-arithmetic simplex for the small dense LPs of the exponent solver.

Solves  minimize c.x  subject to  A x <= b,  x >= 0  over ``Fraction``
entries with the two-phase tableau method.  Bland's pivoting rule rules out
cycling, so optima are exact rationals and the solver always terminates.
Internal to the package: sized for a few dozen variables, not a general LP
surface.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Infeasible", "Unbounded", "solve_min"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Infeasible(Exception):
    """The constraint set A x <= b, x >= 0 is empty."""


class Unbounded(Exception):
    """The objective is unbounded below on the feasible set."""


def _pivot(rows, cost, basis, pr, pc):
    """Pivot the tableau on (row pr, column pc), updating the cost row."""
    prow = rows[pr]
    inv = _ONE / prow[pc]
    if inv != _ONE:
        rows[pr] = prow = [v * inv for v in prow]
    hot = [j for j, v in enumerate(prow) if v != 0]
    for row in rows:
        if row is prow:
            continue
        f = row[pc]
        if f != 0:
            for j in hot:
                row[j] -= f * prow[j]
    f = cost[pc]
    if f != 0:
        for j in hot:
            cost[j] -= f * prow[j]
    basis[pr] = pc


def _iterate(rows, cost, basis, ncols):
    """Run Bland-rule pivots until the cost row has no negative reduced cost."""
    while True:
        pc = next((j for j in range(ncols) if cost[j] < 0), None)
        if pc is None:
            return
        pr = None
        best = None
        for i, row in enumerate(rows):
            a = row[pc]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pr]):
                    best, pr = ratio, i
        if pr is None:
            raise Unbounded(f"column {pc} has no positive pivot entry")
        _pivot(rows, cost, basis, pr, pc)


def solve_min(c, a_ub, b_ub):
    """Minimize c.x subject to a_ub x <= b_ub, x >= 0; exact rationals.

    Returns (optimal value, x) with x a list of Fractions.  Raises
    :class:`Infeasible` / :class:`Unbounded` accordingly.
    """
    nvar = len(c)
    m = len(a_ub)
    c = [Fraction(v) for v in c]

    # Rows: [A | slack I | artificials... | rhs].  Rows with negative rhs are
    # negated (slack entry becomes -1) and get an artificial basis column.
    need_art = [i for i in range(m) if Fraction(b_ub[i]) < 0]
    nart = len(need_art)
    ncols = nvar + m + nart
    rows = []
    basis = [0] * m
    art_of_row = {r: nvar + m + k for k, r in enumerate(need_art)}
    for i in range(m):
        row = [Fraction(v) for v in a_ub[i]]
        if len(row) != nvar:
            raise ValueError(f"row {i} has {len(row)} entries, expected {nvar}")
        row += [_ZERO] * (m + nart) + [Fraction(b_ub[i])]
        row[nvar + i] = _ONE
        if i in art_of_row:
            row = [-v for v in row]
            row[art_of_row[i]] = _ONE
            basis[i] = art_of_row[i]
        else:
            basis[i] = nvar + i
        rows.append(row)

    if nart:
        # Phase 1: minimize the sum of artificials, expressed over the
        # current (artificial) basis.
        cost = [_ZERO] * (ncols + 1)
        for i in need_art:
            for j in range(ncols + 1):
                cost[j] -= rows[i][j]
        for k in range(nvar + m, ncols):
            cost[k] = _ZERO
        _iterate(rows, cost, basis, ncols)
        if -cost[-1] != 0:
            raise Infeasible(f"phase-1 optimum {-cost[-1]} > 0")
        # Drive leftover artificials out of the basis; a row with no usable
        # pivot entry is redundant and dropped.
        for i in reversed(range(len(rows))):
            if basis[i] >= nvar + m:
                pc = next(
                    (j for j in range(nvar + m) if rows[i][j] != 0), None
                )
                if pc is None:
                    del rows[i]
                    del basis[i]
                else:
                    _pivot(rows, cost, basis, i, pc)
        rows = [row[: nvar + m] + row[-1:] for row in rows]
        ncols = nvar + m

    # Phase 2: reduced costs of c over the current basis.
    cost = c + [_ZERO] * (m + 1)
    cost = cost[: ncols + 1]
    for i, row in enumerate(rows):
        f = cost[basis[i]]
        if f != 0:
            for j in range(ncols + 1):
                cost[j] -= f * row[j]
    _iterate(rows, cost, basis, ncols)

    x = [_ZERO] * nvar
    for i, b in enumerate(basis):
        if b < nvar:
            x[b] = rows[i][-1]
    return -cost[-1], x
