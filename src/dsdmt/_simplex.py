"""Exact-arithmetic simplex for the small dense LPs of the exponent solver.

Solves  minimize c.x  subject to  A x <= b,  x >= 0  over the rationals, for
c >= 0 only: then c.x >= 0, so no LP it accepts is unbounded, and the slack
basis is dual feasible.  A new LP starts there and runs dual pivots until no
right-hand side is negative, or a row shows that no point exists (Lemke,
*Naval Res. Logist. Q.* 1, 1954).  Bland's rules rule out cycling, so optima
are exact rationals and the solver always terminates.  Internal to the
package: sized for a few dozen variables, not a general LP surface.

The tableau holds Python ints: a row stands for itself over its basic entry, kept > 0, and
the cost row ends in its own scale.  A new LP's c, and its b with the rows, go in as they
are when one type pass finds ints alone; any other entry is read as an exact rational and
scaled to ints first.  Pivots are fraction-free (Bareiss, Math. Comp. 22, 1968) and in
place: a row with f = row[pc] != 0 becomes p*row - f*prow over its gcd, mostly in prow's
nonzero columns alone.  Every test compares the rationals a Fraction tableau would, so the
pivots, the optimum and x are the ones it would give.

Every solve starts at the top of a span of b's last entry t and sweeps down to its bottom.
As t grows it only loosens the last row, so the top has a point if any t in the span has
one.  Moving t adds its change times the slack column to each rhs and keeps the reduced
costs, so a basis stays optimal on a t-range, from the dual ratio test: a piece, kept with
its ends as int pairs and the rhs and slack columns that give the value and x in it.  At
its lower end the blocking row leaves by a dual pivot, the rhs still at the top, until the
LP has no point below (parametric rhs; Murty, *Linear Programming*, 1983); a point piece is
dropped unread.  A warm dict sweeps the span given with it; without one the span is t alone,
so the sweep stops before its first pivot.  Every call looks t up, and no tableau outlives
its sweep: a warm dict holds the sweep of a tuple c and tuple rows, and a call with those
very tuples, b[:-1] and span reads t alone, after comparing b[:-1], one pass over the rows.
"""

from __future__ import annotations

from collections import Counter
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
    """The optimal tableau from the slack basis, dual feasible as the exact c is >= 0, and the
    dual Bland pivots it took, run until no right-hand side is negative: the negative-rhs row
    of smallest basic index leaves."""
    (rows, basis), (cost, scale) = _slack_rows(len(c), a_ub, b_ub), _scaled(c)
    cost += [0] * (len(rows) + 1) + [scale]
    for pivots in count():
        if not (neg := [i for i, row in enumerate(rows) if row[-1] < 0]):
            return (rows, cost, basis), pivots
        if not _dual_pivot(rows, cost, basis, pr := min(neg, key=basis.__getitem__)):
            raise Infeasible(f"row {pr} has a negative right-hand side and no negative entry")


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


def _ends(tableau, slack, t0):
    """([lo, hi], [below, above]): the basis's t-range along the last row's slack, t0 there, as
    unreduced int pairs, (-1, 0) and (1, 0) for -inf and inf, and its blocking rows or None."""
    rows, basis, ends = tableau[0], tableau[2], [None, None]  # (|col|, rhs, row) of the least
    for i in compress(count(), map(itemgetter(slack), rows)):  # rhs / |col| over col > 0 and < 0
        v, s = rows[i][-1], rows[i][slack]
        if ((e := ends[s < 0]) is None or (d := v * e[0] - e[1] * abs(s)) < 0
                or d == 0 and basis[i] < basis[e[2]]):
            ends[s < 0] = abs(s), v, i
    (tn, td), sign = t0, (-1, 1)
    return ([(tn * e[0] + g * e[1] * td, td * e[0]) if e else (g, 0) for e, g in zip(ends, sign)],
            [e and e[2] for e in ends])


def _piece(tableau, slack, t0, ends):
    """(lo, hi, t0, xs, piv, rhs, col): the basis as a piece with those ends; xs are the basic x
    with a nonzero rhs or col, then the cost row's: at b = t, x is (rhs + (t - t0) col) / piv."""
    (rows, cost, basis), nvar = tableau, slack + 1 - len(tableau[0])
    xs, piv, rhs, col = zip(*[(j, row[j], row[-1], row[slack]) for row, j in zip(rows, basis)
                              if j < nvar and (row[-1] or row[slack])],
                            (None, cost[-1], cost[-2], cost[slack]))
    return (*ends, t0, xs[:-1], piv, rhs, col)


def _sweep(tableau, slack, t0, counts, stop):
    """The pieces of the LP from its optimal tableau at t0, its own, then those below it, until
    one ends at or below stop (an int pair).  The row that blocks a lower end leaves by a dual
    pivot, the dual Bland one at end - eps, so none cycles; if none can, no t below has a
    point.  The pivots change the tableau in place."""
    ends, blocking = _ends(tableau, slack, t0)
    pieces = [_piece(tableau, slack, t0, ends)]
    while blocking[0] is not None and ends[0][0] * stop[1] > stop[0] * ends[0][1]:
        if not _dual_pivot(*tableau, blocking[0]):
            break
        ends, blocking = _ends(tableau, slack, t0)
        if ends[0][0] * ends[1][1] != ends[1][0] * ends[0][1]:  # lo < hi: a point is in the
            pieces.append(_piece(tableau, slack, t0, ends))  # piece before, so dropped
        counts["pivots"] += 1
    counts["pieces"] += len(pieces)
    counts["max_bits"] = max(counts["max_bits"], max(map(abs, chain.from_iterable(
        (*p[0], *p[1], *p[4], *p[5], *p[6]) for p in pieces))).bit_length())
    return pieces


def _ratio(v, span=None):
    """v read exactly, as an int pair (num, den); ValueError if outside span, exact lo <= hi."""
    n, d = t = (v if type(v) is Fraction else _exact(v)).as_integer_ratio()
    if not type(n) is type(d) is int:  # a Fraction may keep numpy ints
        n, d = t = int(n), int(d)
    if span is not None and not span[0] * d <= n <= span[1] * d:
        raise ValueError(f"t = {Fraction(n, d)} lies outside the span [{span[0]}, {span[1]}]")
    return t


def _find(pieces, t):
    """(the first of pieces with lo <= t <= hi, t), t an int pair; Infeasible if none."""
    tn, td = t
    for piece in pieces:
        (lo, lo_d), (hi, hi_d) = piece[0], piece[1]
        if lo * td <= tn * lo_d and tn * hi_d <= hi * td:
            return piece, t
    raise Infeasible(f"no piece holds {Fraction(tn, td)}: no point for that b")


def _warm_piece(c, a_ub, b_ub, warm, span):
    """(piece, t as (num, den)), t the last entry of b_ub: the first piece that holds t of a sweep
    from the top of span down to its bottom if warm is given, else of t alone.  A warm dict
    without a span, and then a t outside span, raise ValueError first.  warm keeps its counts
    and the last sweep of a tuple c and tuple rows; a t in no piece raises Infeasible."""
    cold, warm = warm is None, {} if warm is None else warm
    if span is None and not cold:
        raise ValueError("a warm dict sweeps a span, and none is given")
    counts = warm.get("counts") or warm.setdefault("counts", Counter())
    held, fixed, swept, pieces = warm.get("last", (None,) * 4)
    if (held and held[0] is c and held[1] is a_ub and type(b_ub) is list and type(span) is tuple
            and span == swept and 0 < len(b_ub) == len(a_ub) and b_ub[:-1] == fixed):
        return _find(pieces, _ratio(b_ub[-1], swept))
    # a tuple of tuple rows cannot change, so only it is held, as given, to compare by identity
    lp = (c, a_ub) if {*map(type, (c, a_ub, *a_ub))} <= {tuple} else None
    b = [*b_ub[: len(a_ub)]]
    fix, t = b[:-1], b[-1] if b else 0  # no rows: t = 0 stands in, its column the rhs
    if span is not None:  # then t is read before c, and must lie in span
        _ratio(t, span := tuple(map(_exact, span)))
    c = [*map(_exact, c)]
    if (j := next(compress(count(), map(lt, c, repeat(0))), None)) is not None:
        raise ValueError(f"c[{j}] = {c[j]} is negative; only c >= 0 is solved")
    stop, top = (t, t) if cold else span
    if b:  # t only loosens the last row as it grows: the top has a point if any t has
        b[-1] = top
    tableau, pivots = _dual_start(c, a_ub, b)
    counts["cold_solves"] += 1
    counts["pivots"] += pivots
    pieces = _sweep(tableau, len(c) + len(fix), _ratio(top), counts, _ratio(stop))
    if lp:
        warm["last"] = lp, fix, span, pieces
    return _find(pieces, _ratio(t))


def solve_min(c, a_ub, b_ub, warm=None, *, span=None):
    """Minimize c.x subject to a_ub x <= b_ub, x >= 0; exact rationals.

    Entries may be anything ``Fraction`` accepts, and c must be >= 0, so the
    value is too.  Returns the optimal value, one Fraction; the x it comes from
    stays in the piece (see above).  Raises :class:`Infeasible` if no x is
    feasible, and ValueError, before any pivot, if an entry of c is negative,
    if t lies outside span, a pair lo <= hi, or if warm is given without span.

    warm, a dict, holds the pieces of the last sweep of a tuple c and tuple rows: a call
    whose tuples, b[:-1] and span it does not hold solves at hi and sweeps down over
    [lo, hi] (see above), and every call looks t up.  It counts the cold solves, pivots,
    pieces and the most bits a piece held.  Without warm, one solve at t answers.
    """
    (_, _, (t0, t0_d), _, piv, rhs, col), (tn, td) = _warm_piece(c, a_ub, b_ub, warm, span)
    p, q = tn * t0_d - t0 * td, td * t0_d  # t - t0 = p / q
    return Fraction(-q * rhs[-1] - p * col[-1], q * piv[-1])
