"""The optimal x that a value of the exact simplex comes from, read off its piece.

``_simplex.solve_min`` returns the optimal value alone; the basic x stay in the
piece that gave it (``_simplex._warm_piece``): at b's last entry t,
x_j = (rhs_j + (t - t0) col_j) / piv_j for each basic x_j the piece keeps, and
every other x_j is 0.
"""

from fractions import Fraction

from dsdmt import _simplex


def x_at(piece, t, nvar):
    """The nvar entries of x at t (an int pair (num, den), or a number) in piece."""
    _, _, t0, xs, piv, rhs, col = piece
    move = Fraction(*t) if type(t) is tuple else Fraction(t)
    move -= Fraction(*t0)
    x = [Fraction(0)] * nvar
    for j, pj, vj, sj in zip(xs, piv, rhs, col):  # the cost row's entries come last: zip drops them
        x[j] = (vj + move * sj) / pj
    return x


def solve_with_x(c, a_ub, b_ub, warm=None, span=None):
    """solve_min's value, and the x at b_ub of the piece that its one call read."""
    read, warm_piece = [], _simplex._warm_piece
    _simplex._warm_piece = lambda *args: read.append(warm_piece(*args)) or read[-1]
    try:
        value = _simplex.solve_min(c, a_ub, b_ub, warm, span=span)
    finally:
        _simplex._warm_piece = warm_piece
    [(piece, t)] = read
    return value, x_at(piece, t, len(c))
