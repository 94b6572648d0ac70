"""The internal exact simplex against hand LPs, scipy, a cycling classic, and
the Fraction tableau it replaced (``fraction_simplex``): its values, its
pivots against the dual Bland rule, and the x each value comes from, read off
its optimal tableau.  It is the oracle of the exact LP route: see
``test_envelope.py``."""

import contextlib
import itertools
import math
import operator
from decimal import Decimal
from fractions import Fraction

import fraction_simplex
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dsdmt import _simplex, cli, exponent_solver


def solve_with_x(c, a_ub, b_ub):
    """solve_min's value, and the x of the optimal tableau its one call reached: each basic
    x_j is its row's rhs over its basic entry, and every other x_j is 0."""
    made, dual_start = [], _simplex._dual_start
    _simplex._dual_start = lambda *args: made.append(dual_start(*args)) or made[-1]
    try:
        value = _simplex.solve_min(c, a_ub, b_ub)
    finally:
        _simplex._dual_start = dual_start
    [(rows, _, basis)] = made
    x = [Fraction(0)] * len(c)
    for row, j in zip(rows, basis):
        if j < len(c):
            x[j] = Fraction(row[-1], row[j])
    return value, x


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


@pytest.mark.parametrize("tail", [(), (-5, 0)], ids=["alone", "first-of-two"])
@pytest.mark.parametrize("negative", [-1, Fraction(-1, 3), np.int64(-2), -0.5],
                         ids=["int", "Fraction", "numpy-int", "float"])
def test_negative_cost_entry_raises(negative, tail):
    # only c >= 0 is solved: a negative entry is named when the LP is first read, before
    # any pivot.  With a smaller entry after it, the first negative entry is named, not the
    # least
    c, b_ub = (1, negative, *tail), [-1, 1]
    a_ub = tuple((*row, *[0] * len(tail)) for row in ((-1, -1), (0, 1)))
    with pivots_of(_simplex) as pivots, pytest.raises(ValueError, match=r"^c\[1\] = -"):
        _simplex.solve_min(c, a_ub, b_ub)
    assert not pivots


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
    with dual_pivots_checked() as pivots:
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


# Dual pivots: each is checked against the dual Bland rule recomputed in Fractions, at the
# tableau's own right-hand side.

def _dual_bland(rows, cost, basis):
    """(row, column) of the dual Bland rule: the negative right-hand side with the smallest
    basic index leaves, and the column with the smallest cost[j] / |a_j| over a_j < 0
    enters, lowest j on ties."""
    pr = min((i for i, row in enumerate(rows) if row[-1] < 0), key=basis.__getitem__)
    ratios = {j: Fraction(cost[j], -a) for j, a in enumerate(rows[pr][:-1]) if a < 0}
    return pr, min(ratios, key=lambda j: (ratios[j], j))


@contextlib.contextmanager
def dual_pivots_checked():
    """Check every pivot made inside against _dual_bland; yields the list of them."""
    pivot, made = _simplex._pivot, []

    def checked(rows, cost, basis, pr, pc):
        assert rows[pr][-1] < 0 and (pr, pc) == _dual_bland(rows, cost, basis)
        made.append((pr, pc))
        pivot(rows, cost, basis, pr, pc)

    _simplex._pivot = checked
    try:
        yield made
    finally:
        _simplex._pivot = pivot


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


def _solved(lp):
    """solve_min's outcome on lp as _oracle_outcome gives the oracle's, every pivot checked,
    and x feasible with c.x the value."""
    c, a_ub, b_ub = lp
    try:
        with dual_pivots_checked():
            value, x = solve_with_x(c, a_ub, b_ub)
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


def test_crosscheck_lps_match_oracle():
    # the exponent LP of each of the 171 crosscheck cases to dims 3 with quarter-step r, as
    # its program builds it: the simplex gives the Fraction oracle's value, every pivot
    # checked, and that value is the LP route's
    cases = 0
    for t in itertools.product(range(1, 4), repeat=3):
        c, a_ub, fixed = _exponent_lp(*t)
        for r in (Fraction(k, 4) for k in range(4 * min(t) + 1)):
            assert_matches_oracle((c, a_ub, [*fixed, r]))
            assert _simplex.solve_min(c, a_ub, [*fixed, r]) == exponent_solver.dmt_via_lp(*t, r)
            cases += 1
    assert cases == 171


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


def test_ints_alone_go_in_as_they_are(monkeypatch):
    # c, and b with the rows, of Python ints alone are copied in without a read of any
    # entry and give the lists and scales their values as Fractions give; one entry of
    # another type (a bool, a numpy int, a float) sends its LP through _exact, to the same
    # lists as its value as a Fraction
    c, a_ub, fixed = _exponent_lp(4, 3, 5)
    b = [*fixed, 3]
    frac = lambda xs: [*map(Fraction, xs)]  # noqa: E731
    read = []
    exact = _simplex._exact
    monkeypatch.setattr(_simplex, "_exact", lambda v: read.append(v) or exact(v))
    rows, basis = _simplex._slack_rows(len(c), a_ub, b)
    cost, scale = _simplex._scaled(c)
    assert not read and scale == 1 and cost == [*c]
    assert all(type(v) is int for row in [cost, *rows] for v in row)
    assert (rows, basis) == _simplex._slack_rows(len(c), [*map(frac, a_ub)], frac(b))
    assert (cost, scale) == _simplex._scaled(frac(c))
    for odd in (True, np.int64(1)):  # exact, but not Python ints: scaled, not copied
        assert [*map(type, _simplex._scaled([odd, 2])[0])] == [int, int]
    for odd in (True, np.int64(1), 1.0, 0.5):
        for where in ("row", "b"):
            read.clear()
            got = [*a_ub[0][:-1], odd] if where == "row" else [*a_ub[0]]
            rhs = [odd if where == "b" else b[0], *b[1:]]
            made = _simplex._slack_rows(len(c), [got, *a_ub[1:]], rhs)
            assert any(v is odd for v in read), (odd, where)
            assert made == _simplex._slack_rows(len(c), [frac(got), *a_ub[1:]], frac(rhs))
            assert all(type(v) is int for row in made[0] for v in row)
        read.clear()
        value = _simplex.solve_min((odd, *c[1:]), a_ub, b)
        assert any(v is odd for v in read), odd
        assert value == _simplex.solve_min((Fraction(odd), *c[1:]), a_ub, b)


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


# One right-hand side moved: the cold solve along a path of values t of b's last entry,
# the way the exponent LP's r moves.

# min x + 2y  s.t. y <= 1, x <= 2, x + y >= -t: 0 for t >= 0, -t on [-2, 0], -2 - 2t on
# [-3, -2], and no point below -3
HAND_PATH = {3: 0, Fraction(-1, 2): Fraction(1, 2), 0: 0, -1: 1, Fraction(-7, 3): Fraction(8, 3),
             -3: 4, -4: "Infeasible"}


@pytest.mark.parametrize("t, want", HAND_PATH.items(), ids=map(str, HAND_PATH))
def test_hand_lp_along_its_last_rhs(t, want):
    # each t solved cold, every pivot checked, x feasible with c.x the value, as the oracle
    lp = (1, 2), ((0, 1), (1, 0), (-1, -1)), [1, 2, t]
    assert _solved(lp) == want == _oracle_outcome(lp)


def test_rows_changed_in_place_are_seen():
    # solve_min keeps nothing between calls: a list c, or a list row of a tuple a_ub, changed
    # in place gives the changed LP's value.  min 2x + y  s.t. x + y >= 3, y <= 1: 5 at (2, 1);
    # 6 at (3, 0) with cost 2x + 3y, and 11/2 at (5/2, 1/2) with 2y <= 1
    for c, a_ub in (((2, 1), ([-1, -1], [0, 1])), ([2, 1], ((-1, -1), (0, 1)))):
        assert _simplex.solve_min(c, a_ub, [-3, 1]) == 5
        if type(c) is list:
            c[1], want = 3, 6
        else:
            a_ub[1][1], want = 2, Fraction(11, 2)
        lp = c, a_ub, [-3, 1]
        assert _simplex.solve_min(*lp) == want == _oracle_outcome(lp)


@pytest.mark.parametrize("form", ["c", "rows", "a_ub", "numpy"])
def test_an_lp_in_lists_or_arrays_gives_its_tuples_value(form):
    # the exponent LP of (4, 3, 5) at r = 1/2 with c a list, each row a list, a_ub a list,
    # or c and a_ub numpy arrays: the value of its tuples, and the LP route's
    c, a_ub, fixed = _exponent_lp(4, 3, 5)
    b = [*fixed, Fraction(1, 2)]
    want = _simplex.solve_min(c, a_ub, b)
    c, a_ub = {"c": ([*c], a_ub), "rows": (c, (*map(list, a_ub),)), "a_ub": (c, [*a_ub]),
               "numpy": (np.array(c), np.array(a_ub))}[form]
    assert _simplex.solve_min(c, a_ub, b) == want == exponent_solver.dmt_via_lp(
        4, 3, 5, Fraction(1, 2))


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


def _path_outcomes(lp):
    """The path's values sorted, with row k moved last, and _solved's outcome at each."""
    c, a, b, k, values = lp
    a, b = (*a[:k], *a[k + 1 :], a[k]), [*b[:k], *b[k + 1 :]]
    ts = sorted(values)
    return ts, [_solved((c, a, [*b, t])) for t in ts]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(lp_paths())
def test_no_point_at_the_top_of_a_span_means_none_in_it(lp):
    # t only loosens the last row as it grows, so an LP with no point at the top of a span of
    # t has none anywhere in it, one with a point at t has one at every larger t, and the
    # value never rises with t
    ts, outcomes = _path_outcomes(lp)
    if outcomes[-1] == "Infeasible":
        assert {*outcomes} == {"Infeasible"}, lp
    values = [v for v in outcomes if v != "Infeasible"]
    assert outcomes[len(outcomes) - len(values):] == values, lp
    assert values == sorted(values, reverse=True), lp


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(lp_paths())
def test_the_value_is_convex_in_the_last_rhs(lp):
    # the premise of test_envelope's argument (c): where the LP has a point, its value g is
    # convex in t, so g at a middle t is on or below the chord of g over any two t around it
    ts, outcomes = _path_outcomes(lp)
    points = [(t, v) for t, v in zip(ts, outcomes) if v != "Infeasible"]
    for (t0, v0), (t1, v1), (t2, v2) in itertools.combinations(points, 3):
        assert v1 * (t2 - t0) <= v0 * (t2 - t1) + v2 * (t1 - t0), (lp, t0, t1, t2)


def _exponent_lp(m, n, l):
    """c, a_ub and the fixed entries of b of the exponent LP of (m, n, l)."""
    return exponent_solver._shape(max(m, n), min(m, n), l)._lp


def _exponent_lps(dims):
    """Each exponent LP of the triples with entries <= dims, as (c, a_ub, the fixed
    entries of b), and a triple (m, n, l) with m >= n that poses it; sorted."""
    lps = {}
    for m, n, l in itertools.product(range(1, dims + 1), repeat=3):
        lps.setdefault(_exponent_lp(m, n, l), (max(m, n), min(m, n), l))
    return sorted(lps.items())


# b's last entry t as each type a caller may pass it: each is read as its exact rational
T_TYPES = {"int": 2, "Fraction": Fraction(5, 4), "bool": True, "numpy-int": np.int64(2),
           "float": 0.5, "Decimal": Decimal("1.25"),
           "Fraction-of-numpy-ints": Fraction(np.int64(5), np.int64(4))}


@pytest.mark.parametrize("t", T_TYPES.values(), ids=T_TYPES)
def test_a_last_rhs_of_every_type_is_read_exactly(t):
    # the LP of (5, 3, 4) at t gives the value it gives at Fraction(t), and the LP route's
    # value at r = t, each one Fraction of Python ints
    c, a_ub, fixed = _exponent_lp(5, 3, 4)
    value = _simplex.solve_min(c, a_ub, [*fixed, t])
    route = exponent_solver.dmt_via_lp(5, 3, 4, t)
    assert value == _simplex.solve_min(c, a_ub, [*fixed, Fraction(t)]) == route
    for v in (value, route):
        assert type(v) is Fraction and type(v.numerator) is type(v.denominator) is int


def test_b_is_read_up_to_the_rows():
    # an entry of b past the rows is never read, and a numpy b gives its list's value
    c, a_ub, fixed = _exponent_lp(4, 3, 5)
    want = _simplex.solve_min(c, a_ub, [*fixed, 1])
    assert _simplex.solve_min(c, a_ub, [*fixed, 1, "x"]) == want
    assert _simplex.solve_min(c, a_ub, np.array([*fixed, 1])) == want


def test_solve_lp_outside_its_span_raises():
    # solve_lp answers r in [0, alpha_dim] only, a cold solve's value there, and an r below or
    # above it raises ValueError with dmt_via_lp's message.  The LP itself has no point below
    # 0, where sum s_i <= r meets s >= 0, and is 0 from alpha_dim on, at x = 0 with every s_i = 1
    for m, n, l in itertools.product(range(1, 5), repeat=3):
        if n > m:
            continue
        top, (c, a_ub, fixed) = min(n, l), _exponent_lp(m, n, l)
        for r in (Fraction(-1, 4), Fraction(top, 2), top + Fraction(1, 3), top + 2, -1, top):
            p, b = exponent_solver.build_program(m, n, l, r), [*fixed, r]
            if 0 <= r <= top:
                assert exponent_solver.solve_lp(p) == _simplex.solve_min(c, a_ub, b)
                continue
            with pytest.raises(ValueError, match=rf"^r must lie in \[0, {top}\], got {r}$"):
                exponent_solver.solve_lp(p)
            if r < 0:
                with pytest.raises(_simplex.Infeasible):
                    _simplex.solve_min(c, a_ub, b)
            else:
                assert _simplex.solve_min(c, a_ub, b) == 0


@pytest.mark.parametrize("t", [Fraction(-1, 10**9), 3 + Fraction(1, 10**9), -1, np.int64(4),
                               Fraction(np.int64(13), np.int64(4)), -0.5, Decimal("3.01")],
                         ids=["below", "above", "int", "numpy-int", "Fraction-of-numpy-ints",
                              "float", "Decimal"])
def test_an_r_just_past_either_end_is_named_by_every_route(t):
    # (5, 3, 4) has alpha_dim 3: an r past 0 or 3, of any type, raises one ValueError from
    # solve_lp, dmt_via_lp and the greedy route, naming [0, 3] and r as its exact Fraction;
    # a cold solve of the LP has no point below 0 and is 0 above 3
    messages = set()
    for route in (lambda r: exponent_solver.solve_lp(exponent_solver.build_program(5, 3, 4, r)),
                  lambda r: exponent_solver.dmt_via_lp(5, 3, 4, r),
                  lambda r: exponent_solver.dmt_via_greedy(5, 3, 4, r)):
        with pytest.raises(ValueError) as named:
            route(t)
        messages.add(str(named.value))
    assert messages == {f"r must lie in [0, 3], got {Fraction(t)}"}
    c, a_ub, fixed = _exponent_lp(5, 3, 4)
    if t < 0:
        with pytest.raises(_simplex.Infeasible):
            _simplex.solve_min(c, a_ub, [*fixed, t])
    else:
        assert _simplex.solve_min(c, a_ub, [*fixed, t]) == 0


def test_exponent_lps_match_cold_solves_with_r_rising_and_falling():
    # every crosscheck case with dims <= 5 and quarter-step r (1025), the shape memo cleared
    # first, each triple's r rising and then falling: the LP route gives a cold solve's value
    exponent_solver._shape.cache_clear()
    cold = {}
    for t in itertools.product(range(1, 6), repeat=3):
        c, a_ub, fixed = lp = _exponent_lp(*t)
        rs = [Fraction(k, 4) for k in range(4 * min(t) + 1)]
        want = [cold[lp, r] if (lp, r) in cold else cold.setdefault(
            (lp, r), _simplex.solve_min(c, a_ub, [*fixed, r])) for r in rs]
        for order in (1, -1):
            assert [exponent_solver.dmt_via_lp(*t, r) for r in rs[::order]] == want[::order], t
    # one cold solve per LP and r: 4 alpha_dim + 1 for each of the 55 LPs
    assert len(cold) == sum(4 * fixed.count(-1) + 1 for (_, _, fixed), _ in _exponent_lps(5)) == 475


def test_crosscheck_pivot_count(monkeypatch):
    # the LP route reads each case off its shape's hull: a crosscheck run calls no simplex,
    # starts no tableau and makes no pivot
    calls = []
    for name in ("solve_min", "_dual_start", "_pivot"):
        monkeypatch.setattr(_simplex, name, lambda *a, name=name, f=getattr(_simplex, name): (
            calls.append(name), f(*a))[1])
    report = cli.run_crosscheck(5, True)
    assert report["cases"] == 1025 and not report["mismatches"]
    assert calls == []


def test_each_shape_computes_its_hull_once(monkeypatch):
    # with the shape memo cleared, a crosscheck run computes F once per shape (m >= n, 75 to
    # dims 5), and each case reads its hull off the copy build_program makes; a second run
    # computes nothing.  The 75 shapes pose 55 LPs, which the manifest counts
    exponent_solver._shape.cache_clear()
    made, step_costs = [], exponent_solver._step_costs
    monkeypatch.setattr(exponent_solver, "_step_costs",
                        lambda a, b: made.append((a, b)) or step_costs(a, b))
    report = cli.run_crosscheck(5, True)
    assert len(made) == 75 and len({*made}) == report["lp"]["lps"] == 55
    assert cli.run_crosscheck(5, True) == report and len(made) == 75


def test_an_exponent_lp_at_r_alpha_dim_takes_alpha_dim_pivots(monkeypatch):
    # every exponent LP with dims <= 8, solved at r = alpha_dim: there x = 0 with every s_i = 1
    # is optimal for any c >= 0, and the dual start gets there in exactly alpha_dim pivots,
    # each entering one s_i
    entered, dual_start = [], _simplex._dual_start

    def recording(c, a_ub, b_ub):
        rows, _, basis = done = dual_start(c, a_ub, b_ub)
        entered.append({*basis} - {*range(len(c), len(c) + len(rows))})
        return done

    monkeypatch.setattr(_simplex, "_dual_start", recording)
    lps = _exponent_lps(8)
    for (c, a_ub, fixed), (m, n, l) in lps:
        na = fixed.count(-1)
        with pivots_of(_simplex) as pivots:
            assert _simplex.solve_min(c, a_ub, [*fixed, na]) == 0
        assert (len(pivots), entered.pop()) == (na, {*range(len(c) - na, len(c))}), (m, n, l)
    assert len(lps) == 204


def test_crosscheck_lp_counts_at_dims_8():
    # integer r to dims 8, pinned: the triples pose 204 exponent LPs, one per coefficient
    # pair, and the largest entry of their hulls has 6 bits
    report = cli.run_crosscheck(8, False)
    assert report["cases"] == 1808 and not report["mismatches"]
    assert report["lp"] == {"lps": len(_exponent_lps(8)), "max_bits": 6}
    assert report["lp"]["lps"] == 204


@pytest.mark.parametrize("dims, lps", [(3, 14), (5, 55)])
def test_crosscheck_keeps_no_state_between_runs(dims, lps):
    # two successive runs in one process report the same, LP counts included: each run counts
    # the LPs its own triples pose, so a benchmark's pass loop measures what one run costs
    runs = [cli.run_crosscheck(dims, True) for _ in range(2)]
    assert runs[0] == runs[1] and not runs[0]["mismatches"]
    assert runs[0]["lp"]["lps"] == len(_exponent_lps(dims)) == lps
