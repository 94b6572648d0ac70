"""The internal exact simplex against hand LPs, scipy, a cycling classic, and
the Fraction tableau it replaced (``fraction_simplex``): its values; its
pivots against the dual Bland rule, its warm starts against cold solves, and
the x each value comes from (``piece_x``)."""

import contextlib
import itertools
import math
import operator
import weakref
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import fraction_simplex
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from piece_x import solve_with_x, x_at
from scipy.optimize import linprog

from dsdmt import _simplex, cli, exponent_solver


def test_simple_hand_lp():
    # min x + 2y  s.t. x + y >= 2, x <= 1  ->  3 at (1, 1)
    value, x = solve_with_x([1, 2], [[-1, -1], [1, 0]], [-2, 1])
    assert value == 3
    assert x == [1, 1]


def test_equality_via_pair_of_inequalities():
    # min x + y  s.t. x + y >= 3 (as -x - y <= -3)  ->  3
    assert _simplex.solve_min([1, 1], [[-1, -1]], [-3]) == 3


def test_exact_fractions():
    value, x = solve_with_x(
        [Fraction(1, 3), Fraction(1, 7)], [[-1, 0], [0, -1]], [Fraction(-1, 2), -2]
    )
    assert value == Fraction(1, 6) + Fraction(2, 7)
    assert x == [Fraction(1, 2), Fraction(2)]


def test_infeasible():
    with pytest.raises(_simplex.Infeasible):
        _simplex.solve_min([1], [[1], [-1]], [1, -2])  # x <= 1 and x >= 2


@contextlib.contextmanager
def pivots_of(module):
    """Yields the list of the (row, column) of every pivot module makes inside, in order."""
    pivots, pivot = [], module._pivot

    def recording(rows, cost, basis, pr, pc):
        pivots.append((pr, pc))
        pivot(rows, cost, basis, pr, pc)

    module._pivot = recording
    try:
        yield pivots
    finally:
        module._pivot = pivot


@pytest.mark.parametrize("call", ["cold", "span"])
@pytest.mark.parametrize("negative", [-1, Fraction(-1, 3), np.int64(-2), -0.5],
                         ids=["int", "Fraction", "numpy-int", "float"])
def test_negative_cost_entry_raises(negative, call):
    # only c >= 0 is solved: a negative entry is named when the LP is first read, before
    # any pivot, on a warm dict after t is checked against the span and before its top is
    # solved, and the dict then counts no solve and holds no sweep
    c, a_ub, b_ub = (1, negative), ((-1, -1), (0, 1)), [-1, 1]
    warm, span = {"cold": (None, None), "span": ({}, (0, 2))}[call]
    with pivots_of(_simplex) as pivots, pytest.raises(ValueError, match=r"^c\[1\] = -"):
        _simplex.solve_min(c, a_ub, b_ub, warm, span=span)
    assert not pivots
    assert warm is None or (not warm["counts"] and "last" not in warm)


def test_no_constraints():
    value, x = solve_with_x([2, 3], [], [])
    assert value == 0 and x == [0, 0]


# classic degenerate LP on which naive pivoting cycles; Bland must finish
BEALE = (
    [Fraction(-3, 4), 150, Fraction(-1, 50), 6],
    [[Fraction(1, 4), -60, Fraction(-1, 25), 9], [Fraction(1, 2), -90, Fraction(-1, 50), 3],
     [0, 0, 1, 0]],
    [0, 0, 1],
)


def test_beales_cycling_example():
    # min c.x, A x <= b has negative c, so it is solved as its dual, min b.y, -A^T y <= c:
    # b >= 0, and the dual start meets c's negative entries as right-hand sides.  Dual
    # pivots with the most negative right-hand side leaving return to the slack basis every
    # 12; the dual Bland ones finish, at minus Beale's optimum
    c, a_ub, b_ub = BEALE
    dual = b_ub, [[-row[j] for row in a_ub] for j in range(len(c))], c
    with dual_pivots_checked() as (pivots, _):
        assert _simplex.solve_min(*dual) == Fraction(1, 20) and pivots
    assert_matches_oracle(dual)


def test_redundant_equality_rows():
    # x = 1 stated twice (two >= rows), plus x <= 1: a degenerate dual start
    value, x = solve_with_x([1], [[-1], [-1], [1]], [-1, -1, 1])
    assert value == 1 and x == [1]


def test_against_scipy_randomized():
    rng = np.random.default_rng(20240817)
    agreed = 0
    for trial in range(350):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 7))
        c = rng.integers(0, 6, size=n)
        a = rng.integers(-4, 5, size=(m, n))
        b = rng.integers(-3, 8, size=m)
        ref = linprog(c, A_ub=a, b_ub=b, bounds=[(0, None)] * n, method="highs")
        try:
            value, x = solve_with_x(c.tolist(), a.tolist(), b.tolist())
        except _simplex.Infeasible:
            assert ref.status == 2, (trial, ref.status)
            continue
        assert ref.status == 0, trial
        assert abs(float(value) - ref.fun) < 1e-7, (trial, value, ref.fun)
        xs = np.array([float(v) for v in x])
        assert np.all(a @ xs <= b + 1e-9), trial
        agreed += 1
    assert agreed > 100  # the comparison actually exercised real optima


# Dual pivots: each is checked against the dual Bland rule recomputed in Fractions: at
# the tableau's own right-hand side for a dual start, at the breakpoint it crosses for
# the sweep.

def _dual_bland(rows, cost, basis, pr=None):
    """(row, column) of the dual Bland rule: the negative right-hand side
    with the smallest basic index leaves, unless pr is given, and the column
    with the smallest cost[j] / |a_j| over a_j < 0 enters, lowest j on ties."""
    if pr is None:
        pr = min((i for i, row in enumerate(rows) if row[-1] < 0), key=basis.__getitem__)
    ratios = {j: Fraction(cost[j], -a) for j, a in enumerate(rows[pr][:-1]) if a < 0}
    return pr, min(ratios, key=lambda j: (ratios[j], j))


def _assert_sweep_pivot(rows, cost, basis, pr, pc, slack):
    """A sweep's pivot (pr, pc), t's column slack: the basis is feasible at the t where row pr
    reaches 0, so that t ends its piece; pr has the least basic index of the rows that reach 0
    there from the same side; and pc is the dual Bland column on it, as at t past the end."""
    col = [row[slack] for row in rows]
    end = Fraction(-rows[pr][-1], col[pr])  # t - t0, the rhs being that at t0
    at_end = [row[-1] + end * s for row, s in zip(rows, col)]
    assert min(at_end) >= 0
    blocking = [i for i, v in enumerate(at_end) if v == 0 and col[i] * col[pr] > 0]
    assert pr == min(blocking, key=basis.__getitem__)
    assert (pr, pc) == _dual_bland(rows, cost, basis, pr)


@contextlib.contextmanager
def dual_pivots_checked():
    """Check every pivot made inside: a sweep's by _assert_sweep_pivot, any other, a dual
    start's, against _dual_bland; yields the lists of the dual-start and the sweep pivots."""
    pivot, sweep = _simplex._pivot, _simplex._sweep
    dual, swept, slack = [], [], []

    def sweeping(tableau, column, *rest):
        slack.append(column)
        try:
            return sweep(tableau, column, *rest)
        finally:
            slack.pop()

    def checked(rows, cost, basis, pr, pc):
        if slack:
            _assert_sweep_pivot(rows, cost, basis, pr, pc, slack[-1])
            swept.append((pr, pc))
        else:  # its row's rhs is negative, as no primal pivot's is
            assert rows[pr][-1] < 0 and (pr, pc) == _dual_bland(rows, cost, basis)
            dual.append((pr, pc))
        pivot(rows, cost, basis, pr, pc)

    _simplex._pivot, _simplex._sweep = checked, sweeping
    try:
        yield dual, swept
    finally:
        _simplex._pivot, _simplex._sweep = pivot, sweep


# Differential tests: the Fraction oracle's two phases against the dual start.  On
# every LP the integer tableau gives the oracle's value, or raises Infeasible when it
# does, or the same other exception with the same message; its x is feasible with c.x
# the value, and every pivot of a cold solve is the dual Bland one.

_UNREADABLE = (ValueError, TypeError, OverflowError, IndexError)  # an entry or a shape


def _oracle_outcome(lp):
    """The oracle's optimal value, or "Infeasible", or the type and message of what else it raises."""
    try:
        return fraction_simplex.solve_min(*lp)[0]
    except fraction_simplex.Infeasible:
        return "Infeasible"
    except _UNREADABLE as exc:
        return type(exc).__name__, str(exc)


def _solved(lp, warm=None, span=None):
    """solve_min's outcome on lp as _oracle_outcome gives the oracle's, every pivot checked,
    and x feasible with c.x the value."""
    c, a_ub, b_ub = lp
    try:
        with dual_pivots_checked():
            value, x = solve_with_x(c, a_ub, b_ub, warm, span)
    except _simplex.Infeasible:
        return "Infeasible"
    except _UNREADABLE as exc:
        return type(exc).__name__, str(exc)
    assert min(x, default=0) >= 0 and sum(Fraction(ci) * xi for ci, xi in zip(c, x)) == value
    assert all(sum(Fraction(ai) * xi for ai, xi in zip(row, x)) <= Fraction(bi)
               for row, bi in zip(a_ub, b_ub))
    return value


def assert_matches_oracle(lp):
    assert _solved(lp) == _oracle_outcome(lp), lp


def test_crosscheck_lps_match_oracle(monkeypatch):
    lps = []
    solve = _simplex.solve_min

    def recording(c, a_ub, b_ub, warm=None, **kw):  # crosscheck's solves are warm
        lps.append((c, a_ub, b_ub))
        return solve(c, a_ub, b_ub, warm, **kw)

    monkeypatch.setattr(_simplex, "solve_min", recording)
    report = cli.run_crosscheck(3, True)
    monkeypatch.undo()
    assert report["cases"] == len(lps) == 171 and not report["mismatches"]
    for lp in lps:
        assert_matches_oracle(lp)


@pytest.mark.parametrize("lp", [
    ([1], [[-1], [-1], [1]], [-1, -1, 1]),  # redundant equality rows
    ([1, 2], [[1, 1], [-1, -1], [1, 0], [-1, 0]], [2, -2, 1, -1]),  # x fixed by two equalities
    ([2, 3], [], []),  # no constraints
    ([0, 1], [], []),  # no constraints, a zero cost
    ([], [], []),
    ([1, 1], [[-1, -1]], [-3]),  # negative rhs
    ([1], [[1], [-1]], [1, -2]),  # infeasible
    ([0, 0], [[1, 1], [-2, -2]], [Fraction(1, 3), -1]),  # infeasible, fractional bound
    ([0], [[-1]], [0]),  # a ray of zero cost
    ([np.int64(2), Fraction(1, 3), "1/2", 0.25, True],
     [[1, "2", np.int64(1), 0.5, 1], [Fraction(-1, 7), 0, -1, 0, np.int64(3)]],
     [np.int64(4), "-1/3"]),
    (np.array([1, 1]), np.array([[-1, -2], [-3, -1]]), np.array([-4, -5])),
    (np.array([1.5, 1.0]), np.array([[-1, -2.5], [-3, -1]]), np.array([-4.0, -5.0])),
    ([1, math.nan], [[1, 1]], [1]),
    ([1, 1], [[1, math.inf]], [1]),
    ([1, 1], [[1, 1]], [-math.inf]),
    ([1, 1], [[1, "x"]], [math.nan]),  # b is read first
    ([math.nan], [[1]], ["x"]),  # c before b
    ([1, None], [[1, 1]], [1]),
    ([1, 1], [[1]], [1]),  # short row
    ([1, 1], [[1, 1], [1, 1]], [1]),  # short b
], ids=["redundant", "two-equalities", "empty", "empty-zero-cost", "no-vars", "negative-rhs",
        "infeasible", "infeasible-fraction", "zero-cost-ray", "mixed-types", "numpy-int",
        "numpy-float", "nan-c", "inf-a", "inf-b", "nan-b-first", "nan-c-first", "none",
        "short-row", "short-b"])
def test_hand_lps_match_oracle(lp):
    assert_matches_oracle(lp)
    # a warm call over the span (t, t) solves at t and sweeps nowhere, as a cold call with
    # that span does: the same outcome and pivots, or the same exception, and the warm dict
    # counts the pivots of a solve that ends.  Both read the span before c
    b = [*lp[2][: len(lp[1])]]
    span = (b[-1] if b else 0,) * 2  # no rows: t = 0
    with pivots_of(_simplex) as cold:
        outcome = _solved(lp, span=span)
    warm = {}
    with pivots_of(_simplex) as pivots:
        assert _solved(lp, warm, span) == outcome
    assert pivots == cold
    assert warm["counts"]["pivots"] == (len(pivots) if type(outcome) is Fraction else 0)


def test_narrow_numpy_ints_are_exact():
    # the Fraction tableau kept numpy numerators and so went wrong on int8 here;
    # the integer tableau reads them as Python ints
    lp = ([1, 1], [[-3, -1], [-2, -7]], [-7, -5])
    narrow = (lp[0], np.array(lp[1], dtype=np.int8), lp[2])
    with np.errstate(all="ignore"):
        assert fraction_simplex.solve_min(*narrow)[0] != Fraction(45, 19)
    assert solve_with_x(*narrow) == (Fraction(45, 19), [Fraction(44, 19), Fraction(1, 19)])
    assert repr(_simplex.solve_min(*narrow)) == repr(_simplex.solve_min(*lp))


def _entries(lo):
    """Numbers in [lo, 6] in each form Fraction reads: ints, Fractions, strings, floats, numpy ints."""
    values = st.integers(lo, 6)
    return st.one_of(
        values,
        st.fractions(min_value=lo, max_value=6, max_denominator=6),
        st.tuples(values, st.integers(1, 6)).map(lambda t: f"{t[0]}/{t[1]}"),
        values.map(lambda v: v / 4),
        values.map(np.int64),
    )


_VALUES, _ENTRIES, _COSTS = st.integers(-6, 6), _entries(-6), _entries(0)
_POISON = st.sampled_from([math.nan, math.inf, -math.inf, "1/0x", None])


@st.composite
def random_lps(draw):
    """Small LPs with c >= 0; about half all-int, degenerate right-hand sides, some
    equality pairs, and now and then one entry Fraction rejects."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    entry = draw(st.sampled_from([_VALUES, _ENTRIES]))
    c = draw(st.lists(st.integers(0, 6) if entry is _VALUES else _COSTS, min_size=n, max_size=n))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.one_of(st.just(0), entry), min_size=m, max_size=m))
    if entry is _VALUES and m and draw(st.booleans()):  # row 0 as an equality
        a.append([-v for v in a[0]])
        b.append(-b[0])
    if n and m and draw(st.integers(0, 9)) == 0:
        where = draw(st.sampled_from([c, a[0], b]))
        where[draw(st.integers(0, len(where) - 1))] = draw(_POISON)
    return c, a, b


@st.composite
def nonnegative_cost_lps(draw):
    """Small LPs with c >= 0.  Most have b = A x0 + s for some x0 >= 0 and s >= 0,
    often 0 (degenerate), so they are feasible and their negative right-hand sides
    make the dual pivots work; the rest draw b freely, and many have no point."""
    n, m, den = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    c = [Fraction(v, den) for v in draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))]
    a = draw(st.lists(st.lists(_VALUES, min_size=n, max_size=n), min_size=m, max_size=m))
    if draw(st.integers(0, 3)):
        x0 = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        s = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        b = [sum(map(operator.mul, row, x0)) + si for row, si in zip(a, s)]
    else:
        b = draw(st.lists(st.integers(-6, 2), min_size=m, max_size=m))
    if draw(st.booleans()):  # row 0 as an equality
        a.append([-v for v in a[0]])
        b.append(-b[0])
    return c, a, b


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.one_of(random_lps(), nonnegative_cost_lps()))
def test_random_lps_match_oracle(lp):
    assert_matches_oracle(lp)


# Warm starts: one solve, then a parametric sweep of b's last entry t, every dual
# pivot checked, and every value against a cold solve.

def _outcomes(c, a_ub, b_ub, k, values, warm=None, span=None):
    """solve_min with b_ub[k] set to each of values in turn, on one warm dict
    if warm is given, swept over span: the optimal value, or Infeasible if it
    raises that.  A warm x must be optimal too."""
    out = []
    for v in values:
        b = [v if i == k else bi for i, bi in enumerate(b_ub)]
        try:
            value, x = solve_with_x(c, a_ub, b, warm, span)
        except _simplex.Infeasible:
            out.append(_simplex.Infeasible)
            continue
        assert min(x) >= 0 and sum(ci * xi for ci, xi in zip(c, x)) == value
        assert all(sum(ai * xi for ai, xi in zip(row, x)) <= bi for row, bi in zip(a_ub, b))
        out.append(value)
    return out


def _number(pair):
    """A piece's (num, den) as a number: (-1, 0) and (1, 0) stand for -inf and inf."""
    assert type(pair[0]) is int and type(pair[1]) is int and pair[1] >= 0
    return Fraction(*pair) if pair[1] else pair[0] * math.inf


def _ends(piece):
    """lo, hi and t0 of a piece, as numbers."""
    return tuple(map(_number, piece[:3]))


def test_warm_hand_lp():
    # min x + 2y  s.t. y <= 1, x <= 2, x + y >= -b: 0 for b >= 0, -b on [-2, 0], -2 - 2b on
    # [-3, -2] and no point below -3.  The first call solves at 3, the top of the span
    # [-4, 3], where the slack basis is optimal, and sweeps down: one dual pivot at 0
    # reaches [-2, 0], one at -2 reaches [-3, -2], and at -3 no column can enter
    lp, span = ((1, 2), ((0, 1), (1, 0), (-1, -1)), [1, 2, None], 2), (-4, 3)
    warm = {}
    with dual_pivots_checked() as (dual, swept):
        values = _outcomes(*lp, [3, Fraction(-1, 2), 0, Fraction(-7, 3), -3, -4], warm, span)
    assert values == [0, Fraction(1, 2), 0, Fraction(8, 3), 4, _simplex.Infeasible]
    assert not dual and len(swept) == 2
    pieces = warm["last"][-1]  # -4 is in no piece, and the pieces stay
    assert [_ends(piece) for piece in pieces] == [(0, math.inf, 3), (-2, 0, 3), (-3, -2, 3)]
    assert pieces[0][:3] == ((0, 1), (1, 0), (3, 1))  # int pairs, (1, 0) for inf
    assert warm["counts"] == {"cold_solves": 1, "pivots": 2, "pieces": 3, "max_bits": 4}
    assert _outcomes(*lp, [-1], warm, span) == [1] and warm["counts"]["cold_solves"] == 1
    # another LP in the same dict is solved cold, and replaces the first
    other = (1, 1), ((-1, -1),)
    assert _simplex.solve_min(*other, [-3], warm, span=(-3, 0)) == 3
    assert warm["last"][0] == other and warm["counts"]["cold_solves"] == 2


def test_warm_rows_changed_in_place_are_seen():
    # only a tuple c and tuple rows in a tuple are held: a list row of a tuple a_ub, or a
    # list c, changed in place between calls, is solved again
    # min 2x + y  s.t. x + y >= 3, y <= 1: 5 at (2, 1)
    span = (0, 1)
    for c, a_ub in (((2, 1), ([-1, -1], [0, 1])), ([2, 1], ((-1, -1), (0, 1)))):
        warm = {}
        assert _simplex.solve_min(c, a_ub, [-3, 1], warm, span=span) == 5
        if type(c) is list:
            c[1] = 3
        else:
            a_ub[1][1] = 2  # y <= 1/2
        value = _simplex.solve_min(c, a_ub, [-3, 1], warm, span=span)
        assert value == _simplex.solve_min(c, a_ub, [-3, 1]) != 5
        assert warm["counts"]["cold_solves"] == 2 and "last" not in warm
    frozen = ((2, 1), ((-1, -1), (0, 1)))  # held as given: the next compare is by identity
    warm = {}
    _simplex.solve_min(*frozen, [-3, 1], warm, span=span)
    assert warm["last"][0][0] is frozen[0] and warm["last"][0][1] is frozen[1]


@pytest.mark.parametrize("listed", ["c", "rows", "a_ub"])
def test_a_list_c_or_list_rows_are_never_held(listed):
    # a list c, list rows or a list a_ub could change between calls, so the dict never holds
    # their sweep: two calls with the very same objects make two cold solves, to equal values
    c, a_ub, fixed = _exponent_lp(4, 3, 5)
    c, a_ub = {"c": ([*c], a_ub), "rows": (c, (*map(list, a_ub),)), "a_ub": (c, [*a_ub])}[listed]
    warm, b = {}, [*fixed, Fraction(1, 2)]
    values = [_simplex.solve_min(c, a_ub, b, warm, span=(0, 3)) for _ in range(2)]
    assert values[0] == values[1] == exponent_solver.dmt_via_lp(4, 3, 5, Fraction(1, 2))
    assert warm["counts"]["cold_solves"] == 2 and "last" not in warm


def test_a_warm_dict_without_a_span_raises_before_any_pivot():
    # a warm dict sweeps a span, so a call that gives it none is named before any pivot, on a
    # fresh dict and on one that holds the LP's sweep alike, and the dict is left as it was
    c, a_ub, fixed = _exponent_lp(4, 3, 5)
    held = {}
    _simplex.solve_min(c, a_ub, [*fixed, 1], held, span=(0, 3))
    for warm in ({}, held):
        keys, made, last = [*warm], Counter(warm.get("counts")), warm.get("last")
        with pivots_of(_simplex) as pivots, pytest.raises(
                ValueError, match=r"^a warm dict sweeps a span, and none is given$"):
            _simplex.solve_min(c, a_ub, [*fixed, 1], warm)
        assert not pivots and [*warm] == keys and warm.get("last") is last
        assert Counter(warm.get("counts")) == made


@st.composite
def lp_paths(draw):
    """Small LPs with c >= 0, a row k and 2-10 distinct quarter-step values for b_k in
    any order.  Most draws end in a floor on the sum of x and move that floor, so the
    optimum varies with it; some turn infeasible."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    c = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    a = draw(st.lists(st.lists(st.integers(-1, 3), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    b = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    if draw(st.booleans()):  # row 0 as an equality
        a.append([-v for v in a[0]])
        b.append(-b[0])
    if draw(st.integers(0, 4)):  # the floor, -sum x <= b_k, as row k
        a.append([-1] * n)
        b.append(None)
    k = len(a) - 1 if b[-1] is None else draw(st.integers(0, len(a) - 1))
    values = draw(st.lists(st.integers(-16, 4), min_size=2, max_size=10, unique=True))
    return c, a, b, k, [Fraction(v, 4) for v in values]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(lp_paths())
def test_warm_matches_cold_solves(lp):
    # warm moves the last entry of b only, and solves a path that moves another
    # entry cold on every call; so each path also runs with its row k moved last, and
    # that one on one warm dict over the spans its first value, its first two and all of
    # them bound: each span sweeps again, and every value in it is a cold solve's,
    # Infeasible only where a cold solve raises that.  c and the rows are tuples, so the
    # dict holds each sweep
    c, a, b, k, values = lp
    c, a = tuple(c), tuple(map(tuple, a))
    last = c, (*a[:k], *a[k + 1 :], a[k]), [*b[:k], *b[k + 1 :], b[k]], len(a) - 1
    span = (min(values), max(values)) if k == len(a) - 1 else (b[-1], b[-1])
    with dual_pivots_checked():
        assert _outcomes(c, a, b, k, values, {}, span) == _outcomes(*lp)
    cold, warm = dict(zip(values, _outcomes(*last, values))), {}
    for span in ((values[0], values[0]), tuple(sorted(values[:2])), (min(values), max(values))):
        inside = [v for v in values if span[0] <= v <= span[1]]
        with dual_pivots_checked():
            assert _outcomes(*last, inside, warm, span) == [cold[v] for v in inside]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(lp_paths())
def test_no_point_at_the_top_of_a_span_means_none_in_it(lp):
    # t only loosens the last row as it grows, so an LP with no point at its span's top has
    # none at any t in the span: which is why a first warm call with a span solves at the
    # top, by a cold solve's pivots there, and sweeps down from it.  With row k last and the
    # span over all the path's values, each t on a fresh dict gives a cold solve's outcome
    # at t, Infeasible for every t when the top raises it
    c, a, b, k, values = lp
    c, a = tuple(c), tuple(map(tuple, (*a[:k], *a[k + 1 :], a[k])))
    b, span = [*b[:k], *b[k + 1 :]], (min(values), max(values))

    def outcome(t, warm=None, span=None):
        try:
            return _simplex.solve_min(c, a, [*b, t], warm, span=span)
        except _simplex.Infeasible:
            return _simplex.Infeasible

    with pivots_of(_simplex) as top:
        at_top = outcome(span[1])
    for t in values:
        warm = {}
        with pivots_of(_simplex) as pivots:
            value = outcome(t, warm, span)
        assert value == outcome(t), t
        if at_top is _simplex.Infeasible:
            assert pivots == top and "last" not in warm, t
        else:  # every piece keeps the t its rhs stands at: the top
            assert pivots[: len(top)] == top, t
            assert {piece[2] for piece in warm["last"][-1]} == {span[1].as_integer_ratio()}, t


@pytest.mark.parametrize("call", ["cold", "warm", "swept", "other-span"])
@pytest.mark.parametrize("t", [Fraction(-1, 2), 4, "7/2"])
def test_t_outside_the_span_raises_before_any_pivot(t, call):
    # with a span, t must lie in it: one outside is named before any pivot, on a dict that
    # holds the LP's sweep over that span or over another one that holds t, before a new
    # span's top is solved, and then nothing is counted and the sweep stays
    c, a_ub = (1, 2), ((0, 1), (1, 0), (-1, -1))
    warm = {"cold": None, "warm": {}, "swept": {}, "other-span": {}}[call]
    if call in ("swept", "other-span"):
        span = (0, 3) if call == "swept" else (-1, 5)
        assert _simplex.solve_min(c, a_ub, [1, 2, 1], warm, span=span) == 0
    made, last = Counter((warm or {}).get("counts")), (warm or {}).get("last")
    with pivots_of(_simplex) as pivots, pytest.raises(
            ValueError, match=rf"^t = {Fraction(t)} lies outside the span \[0, 3\]$"):
        _simplex.solve_min(c, a_ub, [1, 2, t], warm, span=(0, 3))
    assert not pivots
    assert warm is None or (Counter(warm.get("counts")), warm.get("last")) == (made, last)


# t as each type a caller may pass it: a Fraction of Python ints is read as its int pair,
# and every other t, a Fraction of numpy ints too, is made exact first
T_TYPES = {"int": 2, "Fraction": Fraction(5, 4), "bool": True, "numpy-int": np.int64(2),
           "float": 0.5, "Decimal": Decimal("1.25"),
           "Fraction-of-numpy-ints": Fraction(np.int64(5), np.int64(4))}


def _swept_exponent_lp():
    """c, a_ub, the fixed entries of b and the span of the LP of (5, 3, 4), and a warm
    dict that holds its sweep over that span."""
    c, a_ub, fixed = _exponent_lp(5, 3, 4)
    warm = {}
    _simplex.solve_min(c, a_ub, [*fixed, 0], warm, span=(0, 3))
    return c, a_ub, fixed, (0, 3), warm


@pytest.mark.parametrize("t", T_TYPES.values(), ids=T_TYPES)
def test_a_held_sweep_reads_t_of_every_type_as_a_cold_solve(t):
    # a call with the tuples, rest of b and span its dict holds gives a cold solve's value,
    # one Fraction of Python ints, and solves, pivots and counts nothing
    c, a_ub, fixed, span, warm = _swept_exponent_lp()
    made, last = warm["counts"].copy(), warm["last"]
    with pivots_of(_simplex) as pivots:
        value = _simplex.solve_min(c, a_ub, [*fixed, t], warm, span=span)
    assert not pivots and warm["counts"] == made and warm["last"] is last
    assert value == _simplex.solve_min(c, a_ub, [*fixed, t]) == _simplex.solve_min(
        c, a_ub, [*fixed, Fraction(t)])
    assert type(value) is Fraction and type(value.numerator) is type(value.denominator) is int


@pytest.mark.parametrize("t", [Fraction(-1, 10**9), 3 + Fraction(1, 10**9), -1, np.int64(4),
                               Fraction(np.int64(13), np.int64(4)), -0.5, Decimal("3.01")],
                         ids=["below", "above", "int", "numpy-int", "Fraction-of-numpy-ints",
                              "float", "Decimal"])
def test_a_held_sweep_names_a_t_past_its_span_as_a_new_dict_does(t):
    # a t just past either end of the span raises the ValueError a call on a new dict
    # raises, before any pivot, and the held dict's counts and sweep stay as they were
    c, a_ub, fixed, span, warm = _swept_exponent_lp()
    made, last = warm["counts"].copy(), warm["last"]
    with pytest.raises(ValueError) as new:
        _simplex.solve_min(c, a_ub, [*fixed, t], {}, span=span)
    with pivots_of(_simplex) as pivots, pytest.raises(ValueError) as held:
        _simplex.solve_min(c, a_ub, [*fixed, t], warm, span=span)
    assert str(held.value) == str(new.value) and str(new.value).endswith("[0, 3]")
    assert not pivots and warm["counts"] == made and warm["last"] is last


def test_a_new_span_sweeps_again():
    # the LP of test_warm_hand_lp on one warm dict: first called at t = 1/2 over [0, 1], it
    # is solved at 1 and swept down, and holds [0, inf) alone; a call with the span [-3, -1]
    # is solved at -1 and swept down again, and so is [0, 1] after it.  Every t gives a cold
    # solve's value
    c, a_ub, warm = (1, 2), ((0, 1), (1, 0), (-1, -1)), {}
    for span, ts, pieces in (((0, 1), [Fraction(1, 2), 0, 1], [(0, math.inf)]),
                             ((-3, -1), [-1, -3, Fraction(-5, 2), -2], [(-2, 0), (-3, -2)]),
                             ((0, 1), [1, 0], [(0, math.inf)])):
        for t in ts:
            b = [1, 2, t]
            assert _simplex.solve_min(c, a_ub, b, warm, span=span) == _simplex.solve_min(c, a_ub, b)
        assert [_ends(piece)[:2] for piece in warm["last"][-1]] == pieces
    assert warm["counts"]["cold_solves"] == 3


def test_exponent_lps_warm_match_cold_solves():
    # every crosscheck case with dims <= 5 and quarter-step r, each triple on
    # one warm dict with r rising and falling, against 1025 cold solves; the
    # first call of each sweeps, every pivot of it checked
    with dual_pivots_checked() as (_, swept):
        for t in itertools.product(range(1, 6), repeat=3):
            rs = [Fraction(k, 4) for k in range(4 * min(t) + 1)]
            cold = [exponent_solver.dmt_via_lp(*t, r) for r in rs]
            for order in (1, -1):
                warm = {}
                warm_values = [exponent_solver.dmt_via_lp(*t, r, warm) for r in rs[::order]]
                assert warm_values == cold[::order], t
    assert swept


def test_solve_lp_outside_its_span_raises():
    # solve_lp sweeps [0, alpha_dim] only, and an r below or above it raises ValueError
    # with dmt_via_lp's message, before any pivot, on a fresh warm dict and on one that
    # holds the LP's sweep alike: nothing is counted.  Most LPs here have pieces past
    # alpha_dim that the sweep leaves out
    for m, n, l in itertools.product(range(1, 5), repeat=3):
        if n > m:
            continue
        warm, top = {}, min(n, l)
        for r in (Fraction(-1, 4), Fraction(top, 2), top + Fraction(1, 3), top + 2, -1, top):
            p = exponent_solver.build_program(m, n, l, r)
            if 0 <= r <= top:
                assert exponent_solver.solve_lp(p, warm) == exponent_solver.solve_lp(p)
                continue
            made = warm.get("counts", Counter()).copy()
            with pivots_of(_simplex) as pivots, pytest.raises(
                    ValueError, match=rf"^r must lie in \[0, {top}\], got {r}$"):
                exponent_solver.solve_lp(p, warm)
            assert not pivots and warm.get("counts", Counter()) == made
        assert warm["counts"]["cold_solves"] == 1 and "last" in warm


def _lp_keys(dims):
    """Each triple with entries <= dims, and the coefficient pair of its shape: the key of
    its exponent LP, as the shape gives it, whatever order of m and n it comes in."""
    return {(m, n, l): (s.alpha_coeffs, s.beta_coeffs)
            for m, n, l in itertools.product(range(1, dims + 1), repeat=3)
            for s in [exponent_solver._shape(max(m, n), min(m, n), l)]}


def test_crosscheck_pivot_count(monkeypatch):
    # each of the 55 exponent LPs is solved once, for every triple whose shape has its
    # coefficient pair: by dual pivots from the slack basis at r = alpha_dim, then swept
    # down over [0, alpha_dim] only; every call looks its r up and pivots nowhere; the
    # counts the warm dicts keep are the ones seen
    pivots, starts = [], []
    pivot, dual_start = _simplex._pivot, _simplex._dual_start
    monkeypatch.setattr(_simplex, "_pivot", lambda *a: (pivots.append(a[3:]), pivot(*a)))
    monkeypatch.setattr(_simplex, "_dual_start", lambda *a: (starts.append(a), dual_start(*a))[1])
    report = cli.run_crosscheck(5, True)
    assert report["cases"] == 1025 and not report["mismatches"]
    assert len(pivots) == 315 and len(starts) == len(set(_lp_keys(5).values())) == 55
    assert len(starts) == len(_exponent_lps(5))  # the LPs told apart by value
    assert report["lp"] == {"cold_solves": 55, "pivots": 315, "pieces": 160, "max_bits": 5}


def test_crosscheck_lp_counts_at_dims_8():
    # integer r to dims 8, pinned: a change to where a sweep stops, to a Bland
    # tie-break, or to which triples share a sweep, moves the pivots or the pieces;
    # each of the 204 LPs is solved once
    report = cli.run_crosscheck(8, False)
    assert report["cases"] == 1808 and not report["mismatches"]
    assert report["lp"]["cold_solves"] == len(set(_lp_keys(8).values())) == 204
    assert report["lp"] == {"cold_solves": 204, "pivots": 2039, "pieces": 744, "max_bits": 6}


def test_a_swept_exponent_lp_starts_in_alpha_dim_pivots(monkeypatch):
    # every exponent LP with dims <= 8, first called at r = 0 as the crosscheck calls it: it is
    # solved at r = alpha_dim, where x = 0 with every s_i = 1 is optimal for any c >= 0, and
    # the dual start gets there in exactly alpha_dim pivots, each entering one s_i
    starts, dual_start = [], _simplex._dual_start

    def recording(c, a_ub, b_ub):
        (rows, _, basis), pivots = done = dual_start(c, a_ub, b_ub)
        starts.append((pivots, {*basis} - {*range(len(c), len(c) + len(rows))}))
        return done

    monkeypatch.setattr(_simplex, "_dual_start", recording)
    lps = _exponent_lps(8)
    for (c, a_ub, fixed), (m, n, l) in lps:
        na = fixed.count(-1)
        exponent_solver.solve_lp(exponent_solver.build_program(m, n, l, 0), {})
        assert starts.pop() == (na, {*range(len(c) - na, len(c))}), (m, n, l)
    assert len(lps) == 204


def _rewritten(tableau, old, new, nvar):
    """Every row with an entry in a moved slack taken to b = new, then dual Bland
    pivots: how a warm tableau moved on every call before the pieces."""
    rows, cost, basis = tableau
    ncols = nvar + len(rows)
    for slack, (a, b) in enumerate(zip(old, new), nvar):
        if a != b:
            p, q = Fraction(b - a).as_integer_ratio()
            for tab in (*rows, cost):
                if tab[slack]:
                    tab[:] = _simplex._combine(tab, q, -p * tab[slack], {ncols: 1}, (ncols,))
    while neg := [i for i, row in enumerate(rows) if row[-1] < 0]:
        assert _simplex._dual_pivot(rows, cost, basis, min(neg, key=basis.__getitem__))


def _exponent_lp(m, n, l):
    """c, a_ub and the fixed entries of b of the exponent LP of (m, n, l)."""
    p = exponent_solver.build_program(max(m, n), min(m, n), l, 0)
    return (exponent_solver._lp_cost(p.alpha_coeffs, p.beta_coeffs),
            *exponent_solver._lp_rows(p.alpha_dim, p.beta_dim))


def test_warm_range_test_matches_a_rewrite_on_every_call(monkeypatch):
    # every triple with dims <= 5, r up and then down on one warm dict: each call's
    # value is that of a tableau rewritten to its b on every call and moved there by
    # dual pivots, and its x is feasible with c.x that value; each triple's first
    # call solves, from the slack basis, at r = alpha_dim and sweeps down over
    # [0, alpha_dim], as solve_lp asks; every call is a lookup
    swept = []
    sweep = _simplex._sweep
    monkeypatch.setattr(_simplex, "_sweep", lambda *a: (swept.append(a[2::2]), sweep(*a))[1])
    with dual_pivots_checked():
        for m, n, l in itertools.product(range(1, 6), repeat=3):
            c, a_ub, fixed = _exponent_lp(m, n, l)
            rs = [Fraction(k, 4) for k in range(4 * min(m, n, l) + 1)]
            warm, ref, old = {}, None, None
            for r in rs + rs[-2::-1]:
                b = [*fixed, r]
                if ref is None:
                    ref = _simplex._dual_start(c, a_ub, b)[0]
                else:
                    _rewritten(ref, old, b, len(c))
                old = b
                rows, cost, basis = ref
                value, x = solve_with_x(c, a_ub, b, warm, (0, rs[-1]))
                assert value == Fraction(-cost[-2], cost[-1]), (m, n, l, r)
                assert min(x) >= 0 and sum(ci * xi for ci, xi in zip(c, x) if ci) == value
                assert all(sum(ai * xi for ai, xi in zip(row, x) if ai) <= bi
                           for row, bi in zip(a_ub, b))
            assert warm["counts"]["cold_solves"] == 1
    assert swept == [((min(t), 1), (0, 1)) for t in itertools.product(range(1, 6), repeat=3)]


def test_only_the_first_triple_of_an_lp_solves(monkeypatch):
    # dims <= 5: every triple whose shape has one coefficient pair poses one LP, (m, n, l)
    # and (n, m, l) among them, and each triple after the LP's first is answered by the
    # pieces of its sweep: no solve, no pivot.  So 55 triples solve.
    work, now = [], []
    pivot, dual_start = _simplex._pivot, _simplex._dual_start
    monkeypatch.setattr(_simplex, "_pivot", lambda *a: (work.append(now[-1]), pivot(*a)))
    monkeypatch.setattr(_simplex, "_dual_start",
                        lambda *a: (work.append(now[-1]), dual_start(*a))[1])

    def lp(m, n, l, r, warm):
        now.append((m, n, l))
        return exponent_solver.dmt_via_lp(m, n, l, r, warm)

    report = cli.run_crosscheck(5, True, lp=lp)
    assert report["cases"] == 1025 and not report["mismatches"]
    firsts = {}
    for t, key in _lp_keys(5).items():
        firsts.setdefault(key, t)
    assert set(work) == set(firsts.values()) and len(firsts) == 55


def test_every_call_after_a_dicts_first_finds_its_lp_by_identity(monkeypatch):
    # dims 8 poses 204 coefficient pairs and 36 row sets, and each keeps one c and one a_ub:
    # so every triple after an LP's first finds, in the dict it shares with the others, the
    # very tuples it passes, and every call after a dict's first reads t alone
    found, solve = [], _simplex.solve_min

    def checking(c, a_ub, b_ub, warm=None, **kw):
        if "last" in warm:
            found.append(warm["last"][0][0] is c and warm["last"][0][1] is a_ub)
        return solve(c, a_ub, b_ub, warm, **kw)

    monkeypatch.setattr(_simplex, "solve_min", checking)
    report = cli.run_crosscheck(8, False)
    assert report["cases"] == 1808 and not report["mismatches"]
    assert len(found) == 1808 - len(set(_lp_keys(8).values())) == 1808 - 204 and all(found)


class _Probe:
    """Kept in a warm dict alone, it lives exactly as long as the dict does."""


def test_triples_share_a_warm_dict_exactly_when_they_pose_one_lp(monkeypatch):
    # dims <= 8: the triples with one key, the coefficient pair of their shape, are given
    # one warm dict and pass it the very same c and a_ub tuples, fixed b and span; triples
    # with two keys are given two dicts and pass a different c or a_ub; and each dict is
    # dropped after its LP's last triple, so no sweep outlives the triples that read it
    keys, posed, dicts, made, now = _lp_keys(8), {}, {}, [], []
    last = {key: i for i, key in enumerate(keys.values())}  # the index of each LP's last triple
    solve = _simplex.solve_min

    def recording(c, a_ub, b_ub, warm=None, **kw):
        posed.setdefault(now[-1], []).append((c, a_ub, b_ub[:-1], kw["span"]))
        return solve(c, a_ub, b_ub, warm, **kw)

    def lp(m, n, l, r, warm):
        if not r:  # a triple's first call: the dicts of the LPs past their last triple are gone
            now.append((m, n, l))
            assert [probe() is not None for _, probe in made] == [
                last[key] >= len(now) - 1 for key, _ in made], (m, n, l)
            if "probe" not in warm:
                warm["probe"] = _Probe()
                warm["probe"].n = len(made)
                made.append((keys[m, n, l], weakref.ref(warm["probe"])))
            dicts[m, n, l] = warm["probe"].n
        return exponent_solver.dmt_via_lp(m, n, l, r, warm)

    monkeypatch.setattr(_simplex, "solve_min", recording)
    report = cli.run_crosscheck(8, False, lp=lp)
    assert report["cases"] == 1808 and not report["mismatches"]
    assert len(made) == len(last) == 204 and all(probe() is None for _, probe in made)
    firsts = {}
    for t, key in keys.items():
        first = firsts.setdefault(key, t)
        c, a_ub, fixed, span = posed[first][0]
        assert dicts[t] == dicts[first], t
        assert all(c2 is c and a2 is a_ub and f2 == fixed and s2 == span
                   for c2, a2, f2, s2 in posed[t]), t
    lps = [posed[t][0][:2] for t in firsts.values()]
    assert len({dicts[t] for t in firsts.values()}) == len(set(lps)) == len(lps)


def test_an_equal_but_distinct_c_solves_again(monkeypatch):
    # a c equal to the one swept, in a tuple of its own, is not the c the dict holds: it is
    # solved and swept again, by the same pivots to the same pieces, and then held in its
    # place, so the next call with it reads t alone, with no solve and no pivot
    c, a_ub, fixed = _exponent_lp(4, 3, 5)
    warm, other, rs = {}, tuple([*c]), (Fraction(1, 2), Fraction(5, 4), 3)
    want = [exponent_solver.dmt_via_lp(4, 3, 5, r) for r in rs]
    with pivots_of(_simplex) as first:
        assert _simplex.solve_min(c, a_ub, [*fixed, rs[0]], warm, span=(0, 3)) == want[0]
    made, pieces, read = warm["counts"].copy(), warm["last"][-1], []
    assert other == c and other is not c
    with pivots_of(_simplex) as again:
        assert _simplex.solve_min(other, a_ub, [*fixed, rs[1]], warm, span=(0, 3)) == want[1]
    assert again == first and warm["last"][-1] == pieces and warm["last"][-1] is not pieces
    assert warm["last"][0][0] is other and warm["last"][0][1] is a_ub
    assert warm["counts"] == {**made, "cold_solves": 2, "pivots": 2 * made["pivots"],
                              "pieces": 2 * made["pieces"]}
    made = warm["counts"].copy()
    monkeypatch.setattr(_simplex, "_exact", lambda v: read.append(v) or v)
    with pivots_of(_simplex) as pivots:
        assert _simplex.solve_min(other, a_ub, [*fixed, rs[2]], warm, span=(0, 3)) == want[2]
    assert read == [rs[2]] and not pivots and warm["counts"] == made


def test_a_changed_b_or_span_solves_again():
    # the fast lookup holds the LP, b[:-1] and span of the last sweep: another entry of b, a
    # b with an entry past the rows (t is still the last row's), or another span is not it,
    # and solves again
    c, a_ub, fixed = _exponent_lp(4, 3, 5)
    moved = [1, *fixed[1:]]  # alpha_0 - beta_1 - t_01 <= 1
    for b, span in (([*moved, 1], (0, 3)), ([*fixed, 1, 7], (0, 3)), ([*fixed, 1], (0, 2))):
        warm = {}
        _simplex.solve_min(c, a_ub, [*fixed, Fraction(1, 2)], warm, span=(0, 3))
        value = _simplex.solve_min(c, a_ub, b, warm, span=span)
        assert value == _simplex.solve_min(c, a_ub, b[: len(a_ub)]), (b, span)
        assert warm["counts"]["cold_solves"] == 2, (b, span)
        assert warm["last"][1:3] == (b[: len(a_ub) - 1], span), (b, span)
    # a numpy b or span never takes the lookup, where == would compare it elementwise: each
    # equals the sweep's, and is solved again to a cold solve's value
    for b, span in ((np.array([*fixed, 1]), (0, 2)), ([*fixed, 1], np.array([0, 2]))):
        solves = warm["counts"]["cold_solves"]
        value = _simplex.solve_min(c, a_ub, b, warm, span=span)
        assert value == _simplex.solve_min(c, a_ub, [*fixed, 1]), (b, span)
        assert warm["counts"]["cold_solves"] == solves + 1, (b, span)


def test_pieces_cover_the_range_and_match_cold_solves():
    # after a triple's first call its pieces cover [0, min(m, n, l)] with no gap; at
    # each piece's ends in that range, its midpoint, and r a third and a seventh
    # of the way in (one of them off the quarter grid), the piece alone gives a
    # cold solve's value, and a feasible optimal x
    for m, n, l in itertools.product(range(1, 6), repeat=3):
        if n > m:
            continue
        top = min(m, n, l)
        warm = {}
        for k in range(4 * top + 1):
            exponent_solver.dmt_via_lp(m, n, l, Fraction(k, 4), warm)
        lp, fixed, span, pieces = warm["last"]
        ends = sorted((max(lo, 0), min(hi, top)) for lo, hi, _ in map(_ends, pieces)
                      if lo <= top and hi >= 0)
        assert ends[0][0] == 0 and ends[-1][1] == top, (m, n, l)
        assert all(b[0] <= a[1] for a, b in zip(ends, ends[1:])), (m, n, l)
        c, a_ub = lp
        for piece in pieces:
            lo, hi = Fraction(max(_ends(piece)[0], 0)), Fraction(min(_ends(piece)[1], top))
            if lo > hi:
                continue
            rs = {lo, hi, (lo + hi) / 2, lo + (hi - lo) / 3, lo + (hi - lo) / 7}
            assert lo == hi or any((4 * r).denominator > 1 for r in rs)
            for r in rs:
                one = {"last": (lp, fixed, span, [piece])}
                value, x = solve_with_x(c, a_ub, [*fixed, r], one, (0, top))
                assert not one["counts"]  # no solve, no pivot
                assert value == exponent_solver.dmt_via_lp(m, n, l, r), (m, n, l, r)
                assert min(x) >= 0 and sum(ci * xi for ci, xi in zip(c, x) if ci) == value
                assert all(sum(ai * xi for ai, xi in zip(row, x) if ai) <= bi
                           for row, bi in zip(a_ub, [*fixed, r]))


@pytest.mark.parametrize("dims, solves", [(3, 14), (5, 55)])
def test_crosscheck_keeps_no_state_between_runs(monkeypatch, dims, solves):
    # two successive runs in one process make the same solves and pivots and report the
    # same: the warm dicts live for one run, so each run solves each of its LPs again, and
    # a benchmark's pass loop measures what one run costs
    seen = []
    pivot, dual_start = _simplex._pivot, _simplex._dual_start
    monkeypatch.setattr(_simplex, "_pivot", lambda *a: (seen.append(a[3:]), pivot(*a)))
    monkeypatch.setattr(_simplex, "_dual_start", lambda *a: (seen.append(a[0]), dual_start(*a))[1])
    runs = []
    for _ in range(2):
        report = cli.run_crosscheck(dims, True)
        runs.append((seen[:], report))
        seen.clear()
    assert runs[0] == runs[1] and not runs[0][1]["mismatches"]
    assert runs[0][1]["lp"]["cold_solves"] == len(_exponent_lps(dims)) == solves


def _exponent_lps(dims):
    """Each exponent LP of the triples with entries <= dims, as (c, a_ub, the fixed
    entries of b), and a triple (m, n, l) with m >= n that poses it; sorted."""
    lps = {}
    for m, n, l in itertools.product(range(1, dims + 1), repeat=3):
        lps.setdefault(_exponent_lp(m, n, l), (max(m, n), min(m, n), l))
    return sorted(lps.items())


def test_exponent_lps_swept_from_the_top_match_cold_solves():
    # every exponent LP with dims <= 6, first called at each quarter r in [0, alpha_dim] on
    # a fresh warm dict: each is solved at r = alpha_dim and swept down, so the pivots and
    # the pieces are the same whatever r comes first, and every r of the sweep gives a
    # cold solve's value
    calls = 0
    for (c, a_ub, fixed), (m, n, l) in _exponent_lps(6):
        rs, sweeps = [Fraction(k, 4) for k in range(4 * fixed.count(-1) + 1)], set()
        cold = [_simplex.solve_min(c, a_ub, [*fixed, r]) for r in rs]
        for first in rs:
            warm = {}
            p = exponent_solver.build_program(m, n, l, first)
            assert exponent_solver.solve_lp(p, warm) == cold[rs.index(first)], (m, n, l, first)
            assert [_simplex.solve_min(c, a_ub, [*fixed, r], warm, span=(0, rs[-1]))
                    for r in rs] == cold, (m, n, l, first)
            assert warm["counts"]["cold_solves"] == 1
            sweeps.add((tuple(warm["last"][-1]), tuple(sorted(warm["counts"].items()))))
            calls += 1
        assert len(sweeps) == 1, (m, n, l)
    assert calls == sum(4 * fixed.count(-1) + 1 for (_, _, fixed), _ in _exponent_lps(6))


def test_one_sweep_answers_every_t_of_its_lp():
    # min x + 2y  s.t. y <= 1, x <= 2, x + y >= -t: 0 for t >= 0, -t on [-2, 0], -2 - 2t
    # on [-3, -2], no point below -3.  The first call, at t = -1/2, solves at 7, the top of
    # the span [-4, 7], and sweeps all of it; every later t is looked up, with no solve and
    # no pivot, and a t below -3 raises Infeasible and keeps the pieces
    c, a_ub, half, warm = (1, 2), ((0, 1), (1, 0), (-1, -1)), Fraction(1, 2), {}
    span = (-4, 7)
    assert solve_with_x(c, a_ub, [1, 2, -half], warm, span) == (half, [half, 0])
    assert [_ends(piece)[:2] for piece in warm["last"][-1]] == [(0, math.inf), (-2, 0), (-3, -2)]
    made = warm["counts"].copy()
    for t in (-2, Fraction(-5, 2), 7, Fraction(-1, 3), 0, -3):
        b = [1, 2, t]
        assert _simplex.solve_min(c, a_ub, b, warm, span=span) == _simplex.solve_min(c, a_ub, b)
    with pytest.raises(_simplex.Infeasible):
        _simplex.solve_min(c, a_ub, [1, 2, -4], warm, span=span)
    assert warm["counts"] == made and len(warm["last"][-1]) == 3


# The sweep against the Fraction oracle: the pieces tile the span from its top down to
# its bottom or to the lowest t with a point, agree with cold solves at their ends and
# inside, and below them every t of the span raises Infeasible, as the oracle does.

def _oracle(c, a_ub, b):
    """The Fraction oracle's optimal value at b, or "Infeasible"."""
    try:
        return fraction_simplex.solve_min(c, a_ub, b)[0]
    except fraction_simplex.Infeasible:
        return "Infeasible"


def _warm_outcome(c, a_ub, b, warm, span):
    """solve_min's value on warm over span, its x checked feasible with c.x that value, or
    "Infeasible"."""
    try:
        value, x = solve_with_x(c, a_ub, b, warm, span)
    except _simplex.Infeasible:
        return "Infeasible"
    assert min(x) >= 0 and sum(Fraction(ci) * xi for ci, xi in zip(c, x)) == value
    assert all(sum(Fraction(ai) * xi for ai, xi in zip(row, x)) <= bi for row, bi in zip(a_ub, b))
    return value


def _check_sweep(warm, inside, oracle):
    """The pieces in warm tile an interval of t down from the top of their span: sorted, each
    ends where the next starts, only the first, the solve's, may be a point, and the highest
    holds the top.  At each end of each piece cut to the span, and at the points inside(lo, hi)
    of that cut, the piece alone gives the oracle's value, so the value is continuous where two
    meet; if the pieces end above the span's bottom, a t of the span below them raises
    Infeasible on warm and in the oracle.  oracle holds the oracle's values by t so far, and
    gains those it makes."""
    lp, fixed, span, pieces = warm["last"]
    ends = sorted(_ends(piece)[:2] + (piece,) for piece in pieces)
    assert all(_ends(piece)[0] < _ends(piece)[1] for piece in pieces[1:])
    assert all(a[1] == b[0] for a, b in zip(ends, ends[1:]))
    assert ends[-1][0] <= span[1] <= ends[-1][1]
    for lo, hi, piece in ends:
        lo, hi, one = max(lo, span[0]), min(hi, span[1]), {"last": (lp, fixed, span, [piece])}
        assert lo <= hi
        for t in {lo, hi, *inside(lo, hi)}:
            if t not in oracle:
                oracle[t] = _oracle(*lp, [*fixed, t])
            assert _warm_outcome(*lp, [*fixed, t], one, span) == oracle[t], (lp, fixed, t)
        assert not one["counts"]
    if ends[0][0] > span[0]:
        b = [*fixed, max(span[0], ends[0][0] - Fraction(1, 3))]
        assert _warm_outcome(*lp, b, warm, span) == _oracle(*lp, b) == "Infeasible"


@st.composite
def swept_lps(draw):
    """Small LPs to sweep along their last b entry t, and the t to call at, in order.  The row
    of t has entries of both signs, so many LPs have no point below or above some t; a row
    drawn twice, right-hand sides of 0 and equality pairs make breakpoints at which several
    rows block at once."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    c = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    a = draw(st.lists(st.lists(st.integers(-2, 3), min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, -1]), min_size=m, max_size=m))
    if m and draw(st.booleans()):  # row 0 twice
        a.append(a[0])
        b.append(b[0])
    if m and draw(st.booleans()):  # row 0 as an equality
        a.append([-v for v in a[0]])
        b.append(-b[0])
    a.append(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))  # the row of t
    ts = draw(st.lists(st.integers(-12, 20), min_size=3, max_size=8, unique=True))
    return c, a, b, [Fraction(v, 4) for v in ts], draw(st.fractions(0, 1, max_denominator=9))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(swept_lps())
def test_sweep_matches_oracle(lp):
    # every call on one warm dict over the span of the ts gives the oracle's value, or
    # raises what it raises; if the top of the span has a point, the first call sweeps,
    # and its pieces are checked at their ends, at a random rational point inside each,
    # and below the interval they tile
    c, a, b, ts, frac = lp
    c, a, warm, span = tuple(c), tuple(map(tuple, a)), {}, (min(ts), max(ts))
    with dual_pivots_checked():
        for t in ts:
            assert _warm_outcome(c, a, [*b, t], warm, span) == _oracle(c, a, [*b, t]), (lp, t)
    if "last" in warm:
        _check_sweep(warm, lambda lo, hi: [lo + (hi - lo) * frac], {})


def test_exponent_lp_sweeps_match_oracle():
    # every exponent LP with dims <= 6: at every quarter r in [0, alpha_dim] a cold
    # solve_lp gives the oracle's value; first called at t = 0 over the span
    # [-1, alpha_dim], it is solved at alpha_dim and swept down, its pieces tile
    # [0, alpha_dim], the oracle gives their value at each end and at two rational points
    # of [0, alpha_dim] off the quarter grid, and in the span below 0 both raise Infeasible
    for (c, a_ub, fixed), (m, n, l) in _exponent_lps(6):
        oracle = {}
        for k in range(4 * fixed.count(-1) + 1):
            r = Fraction(k, 4)
            oracle[r] = _oracle(c, a_ub, [*fixed, r])
            p = exponent_solver.build_program(m, n, l, r)
            assert exponent_solver.solve_lp(p) == oracle[r], (m, n, l, r)
        warm, span = {}, (-1, fixed.count(-1))
        _simplex.solve_min(c, a_ub, [*fixed, 0], warm, span=span)
        _check_sweep(warm, lambda lo, hi: (), oracle)
        assert _ends(min(warm["last"][-1], key=lambda p: _ends(p)[0]))[0] == 0
        for t in (fixed.count(-1) * Fraction(3, 7), fixed.count(-1) * Fraction(8, 9)):
            b = [*fixed, t]
            assert _warm_outcome(c, a_ub, b, warm, span) == _oracle(c, a_ub, b)


def test_every_swept_piece_end_has_a_feasible_optimal_x():
    # the primal half of a certificate, for every exponent LP with dims <= 6 first called at
    # r = 0 and swept down over [0, alpha_dim] as solve_lp sweeps it: at both ends of each piece
    # in that range, the piece's x is >= 0, meets A x <= b(t) and gives c.x = solve_min's
    # value there, checked on the rows and the cost the program builds, never on the tableau
    ends = 0
    for (c, a_ub, fixed), _ in _exponent_lps(6):
        span, warm = (0, fixed.count(-1)), {}
        _simplex.solve_min(c, a_ub, [*fixed, 0], warm, span=span)
        for piece in warm["last"][-1]:
            lo, hi, _ = _ends(piece)
            for t in (Fraction(max(lo, 0)), Fraction(min(hi, span[1]))):
                x, b = x_at(piece, t, len(c)), [*fixed, t]
                assert min(x) >= 0, (c, t)
                assert all(sum(ai * xi for ai, xi in zip(row, x) if ai) <= bi
                           for row, bi in zip(a_ub, b)), (c, t)
                value = _simplex.solve_min(c, a_ub, b, warm, span=span)
                assert sum(ci * xi for ci, xi in zip(c, x) if ci) == value, (c, t)
                ends += 1
    assert ends == 2 * 287
