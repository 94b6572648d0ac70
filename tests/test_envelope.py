"""The exact LP route, ``exponent_solver.solve_lp``, proved on the LP's own rows.

The route returns the lower convex hull of the points (p, F(p)) at r, F(p) the least
cost of a 0/1 step vector with sum s_i = p.  That is the exponent LP's optimum d(r)
by two standard theorems, each checked here on ``_lp_rows`` and ``_lp_cost``:

* (a) Without its last row, sum s_i <= r, the LP's rows are totally unimodular (TU):
  every entry is in {-1, 0, 1}; among the alpha and beta columns a row has at most one
  +1 and one -1, so those columns, transposed, are a directed graph's incidence matrix;
  and each t and s column has one nonzero entry, a unit column appended (Hoffman and
  Kruskal, 1956; Schrijver, *Theory of Linear and Integer Programming*, 1986, ch. 19).
  So with the sum row priced by lambda >= 0, the Lagrangian's minimum lies at an
  integral point, where clipping each entry to 1 costs nothing: a step vector.
* (b) Every step vector is feasible at r = p, with the step cost F's formula gives, so
  F(p) >= d(p); and by LP duality for the one priced row (Geoffrion, *Math. Prog.
  Study* 2, 1974), d(r) = max over lambda of min over p of F(p) + lambda (p - r): the
  lower convex envelope of (p, F(p)) at r.

(c) checks the envelope against the internal simplex, (d) the paper's claims that
follow from it, and (e) the envelope against the exponent itself, eps(alpha, beta) of
the ``exponent_solver`` module note, at points of its own constraint set.
"""

import itertools
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsdmt import _simplex
from dsdmt.exponent_solver import (
    _lower_hull,
    _lp_cost,
    _lp_rows,
    _plus_pairs,
    _shape,
    _step_costs,
    build_program,
    solve_lp,
)


def shapes(dims):
    """One shape per exponent LP (coefficient pair) of the triples with entries <= dims."""
    found = {}
    for m, n, l in itertools.product(range(1, dims + 1), repeat=3):
        s = _shape(max(m, n), min(m, n), l)
        found.setdefault((s.alpha_coeffs, s.beta_coeffs), s)
    return [*found.values()]


# (a) TU, read off the rows


def test_rows_without_the_sum_row_meet_the_tu_criterion_to_dims_18():
    checked = 0
    for na, nb in itertools.combinations_with_replacement(range(1, 19), 2):
        rows, fixed = _lp_rows(na, nb)
        rows = rows[:-1]  # the sum row sum s_i <= r is last
        assert len(fixed) == len(rows) and {*itertools.chain(*rows)} == {-1, 0, 1}
        for row in rows:
            ab = row[: na + nb]
            assert ab.count(1) <= 1 and ab.count(-1) <= 1, (na, nb, row)
        columns = [*zip(*rows)][na + nb:]  # the t and s columns
        assert all(len(col) - col.count(0) == 1 for col in columns), (na, nb)
        checked += 1
    assert checked == 171


def minors(rows):
    """{det} of the square submatrices of rows with det != 0, each by Laplace expansion along
    its first row: a minor one size smaller, rows R and columns C, gains a row r above R and a
    column j outside C, with the sign of j's place in C + j."""
    nonzero = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
    level, dets = {(0, 0): 1}, set()
    while level:
        below, level = level, {}
        for (rmask, cmask), det in below.items():
            top = (rmask & -rmask).bit_length() - 1 if rmask else len(rows)
            for r in range(top):
                for j, v in nonzero[r]:
                    if not cmask >> j & 1:
                        key = rmask | 1 << r, cmask | 1 << j
                        odd = (cmask & ((1 << j) - 1)).bit_count() & 1
                        level[key] = level.get(key, 0) + (-v if odd else v) * det
        level = {key: det for key, det in level.items() if det}
        dets.update(level.values())
    return dets


def test_every_minor_is_0_or_1_in_size_without_the_sum_row():
    # the criterion's conclusion by brute force where it is small enough: every square
    # submatrix of the rows without the sum row has det in {-1, 0, 1}
    for na, nb in ((1, 2), (2, 2), (2, 3)):
        dets = minors(_lp_rows(na, nb)[0][:-1])
        assert dets == {-1, 1}, (na, nb)


def test_the_sum_row_breaks_tu():
    # with the sum row kept, (2, 2) has a minor of det 2 or -2: the full LP is not TU, which
    # is why the sum row is priced rather than kept
    assert max(map(abs, minors(_lp_rows(2, 2)[0]))) == 2


# (b) step vectors are feasible, at the step cost


def step_vector(na, nb, p, q):
    """x = [alpha, beta, t, s]: alpha with p leading zeros, beta with q, t and s the plus
    parts (alpha_i - beta_j)^+ and (1 - alpha_i)^+."""
    alpha = [int(i >= p) for i in range(na)]
    beta = [int(j >= q) for j in range(nb)]
    t = [max(alpha[i] - beta[j], 0) for i, j in _plus_pairs(na, nb)]
    return [*alpha, *beta, *t, *[1 - a for a in alpha]]


def test_step_vectors_are_feasible_at_the_step_cost():
    # for every exponent LP to dims 8 and every (p, q), q >= p, the step vector meets every
    # row at r = p, and c.x is the step cost, counted here as the formula counts it; so F(p),
    # the least of them, is the cost of a feasible point at r = p, and F(p) >= d(p)
    feasible = {}
    for s in shapes(8):
        a, b, na, nb = s.alpha_coeffs, s.beta_coeffs, s.alpha_dim, s.beta_dim
        c, (rows, fixed) = _lp_cost(a, b), _lp_rows(na, nb)
        f = []
        for p in range(na + 1):
            costs = []
            for q in range(p, nb + 1):
                x = step_vector(na, nb, p, q)
                if (na, nb, p, q) not in feasible:
                    feasible[na, nb, p, q] = all(
                        sum(map(int.__mul__, row, x)) <= bound
                        for row, bound in zip(rows, [*fixed, p]))
                assert feasible[na, nb, p, q], (na, nb, p, q)
                u = min(q, na)
                cost = sum(a[p:]) + sum(b[q:]) + (u - p) * (2 * q - u - p - 1) // 2
                assert sum(map(int.__mul__, c, x)) == cost, (a, b, p, q)
                costs.append(cost)
            f.append(min(costs))
        assert _step_costs(a, b) == f, (a, b)
    assert len(feasible) == sum((na + 1) * (2 * nb - na + 2) // 2
                                for na, nb in itertools.combinations_with_replacement(
                                    range(1, 9), 2))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=12))
def test_the_hull_is_computed_not_assumed(f):
    # any f, convex or not: at each integer k the hull is the least value at k of a chord
    # between two points around it, f[k] included, and each segment ends on two points of f;
    # the last segment stands again for k = len(f) - 1
    hull = _lower_hull(f)
    assert len(hull) == len(f) and hull[-1] == hull[-2]
    for k in range(len(f) - 1):
        x0, y0, dx, dy = hull[k]
        assert x0 <= k < x0 + dx and y0 == f[x0] and y0 + dy == f[x0 + dx]
        chords = [Fraction(f[i] * (j - k) + f[j] * (k - i), j - i)
                  for i in range(k + 1) for j in range(k + 1, len(f))]
        assert y0 + Fraction(dy * (k - x0), dx) == min(f[k], *chords), (f, k)


# (c) the simplex agrees


def test_cold_simplex_equals_the_envelope_to_dims_8():
    # every exponent LP to dims 8, at every integer and half-integer r in [0, alpha_dim]: a
    # cold solve of the LP's own rows equals solve_lp.  That is agreement at every real r.
    # The LP's value g is convex in its right-hand side, so in r, and the envelope E is
    # affine on each [k, k + 1], as its hull's vertices are integer points.  Take r in
    # [k, k + 1/2]: convexity puts g(r) on or below the chord of g from k to k + 1/2, and,
    # as k + 1/2 lies between r and k + 1, g(r) on or above the line through g's values
    # at k + 1/2 and k + 1.  With g = E at those three points both lines are E, so
    # g(r) = E(r); [k + 1/2, k + 1] likewise
    solves = 0
    for s in shapes(8):
        c, rows, fixed = s._lp
        for k in range(2 * s.alpha_dim + 1):
            r = Fraction(k, 2)
            assert _simplex.solve_min(c, rows, [*fixed, r]) == solve_lp(
                build_program(s.m, s.n, s.l, r)), (s.m, s.n, s.l, r)
            solves += 1
    assert solves == 1284


# (d) the paper's claims


def test_every_ordering_of_a_triple_gives_one_f():
    # to dims 12: the six orderings of a triple pose one F list, so one curve
    for t in itertools.combinations_with_replacement(range(1, 13), 3):
        fs = {tuple(_step_costs(s.alpha_coeffs, s.beta_coeffs))
              for m, n, l in itertools.permutations(t) for s in [_shape(max(m, n), min(m, n), l)]}
        assert len(fs) == 1, t


def test_rayleigh_condition_to_dims_30():
    # the paper's condition: the tradeoff of (M, N, L), M <= N <= L, is the Rayleigh
    # (M - k)(N - k) at every integer k exactly when L + 1 >= M + N; each triple is read as
    # the shape (L, N, M), whose alpha and beta both have M entries
    for m, n, l in itertools.combinations_with_replacement(range(1, 31), 3):
        rayleigh = all(solve_lp(build_program(l, n, m, k)) == (m - k) * (n - k)
                       for k in range(m + 1))
        assert rayleigh == (l + 1 >= m + n), (m, n, l)


# (e) the exponent itself: eps at points of the program's constraint set, not the LP

# (m, n, l), n <= m, in each of the paper's cases: n >= l; n < l <= m; n <= m < l
TRIPLES = [(2, 2, 2), (3, 3, 2), (4, 3, 3), (5, 4, 1), (4, 2, 3), (5, 2, 4), (6, 3, 5),
           (2, 2, 4), (3, 2, 5), (3, 3, 6)]


def eps(a, b, alpha, beta):
    """sum a_i alpha_i + sum b_j beta_j + sum (alpha_i - beta_j)^+ over i < j."""
    return (sum(map(mul, a, alpha)) + sum(map(mul, b, beta))
            + sum(max(alpha[i] - beta[j], 0) for i in range(len(alpha))
                  for j in range(i + 1, len(beta))))


def least_eps(s, values):
    """{u: the least eps} over the points with entries in values that meet the constraints,
    alpha and beta non-decreasing and 0 <= beta_i <= alpha_i at each alpha index, by
    u = sum (1 - alpha_i)^+, the outage set's sum."""
    rising = lambda v: all(x <= y for x, y in zip(v, v[1:]))  # noqa: E731
    least = {}
    for alpha in filter(rising, itertools.product(values, repeat=s.alpha_dim)):
        u = sum(max(1 - x, 0) for x in alpha)
        for beta in filter(rising, itertools.product(values, repeat=s.beta_dim)):
            if all(0 <= y <= x for x, y in zip(alpha, beta)):
                e = eps(s.alpha_coeffs, s.beta_coeffs, alpha, beta)
                least[u] = min(least.get(u, e), e)
    return least


@pytest.mark.parametrize("m, n, l", TRIPLES, ids=map(str, TRIPLES))
def test_f_is_the_least_eps_of_a_0_1_point(m, n, l):
    # over every 0/1 point of the constraint set, read off the constraints and not assumed a
    # step vector: the least eps with u = p is F(p), for each p = 0..alpha_dim
    s = _shape(m, n, l)
    least = least_eps(s, (0, 1))
    assert [least[p] for p in range(s.alpha_dim + 1)] == _step_costs(s.alpha_coeffs,
                                                                     s.beta_coeffs)


@pytest.mark.parametrize("m, n, l", TRIPLES, ids=map(str, TRIPLES))
def test_the_envelope_bounds_eps_on_a_half_grid(m, n, l):
    # at each half-integer r in [0, alpha_dim], every point with entries in {0, 1/2, 1} and
    # u <= r has eps >= solve_lp's d(r), as d(r) is the least eps over the outage set.  The
    # bound is met at each hull vertex, by a step vector, and at the midpoint of a hull
    # segment of width 1: there the mean of its ends' step vectors is on the grid, and eps,
    # convex, is at most the mean of their eps, d(r)
    s, half = _shape(m, n, l), Fraction(1, 2)
    least = least_eps(s, (0, half, 1))
    vertices = {x for x0, _, dx, _ in s._hull for x in (x0, x0 + dx)}
    tight = vertices | {x0 + half for x0, _, dx, _ in s._hull if dx == 1}
    for k in range(2 * s.alpha_dim + 1):
        r = k * half
        d = solve_lp(build_program(m, n, l, r))
        best = min(e for u, e in least.items() if u <= r)
        assert best >= d, (r, best, d)
        assert best == d or r not in tight, (r, best, d)
