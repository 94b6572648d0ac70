"""The internal exact simplex against hand LPs, scipy, a cycling classic, and
the Fraction tableau it replaced (``fraction_simplex``), pivot for pivot; its
warm starts against cold solves, dual pivot by dual pivot."""

import contextlib
import itertools
import math
from fractions import Fraction

import fraction_simplex
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dsdmt import _simplex, cli, exponent_solver


def test_simple_hand_lp():
    # min -x - y  s.t. x + y <= 2, x <= 1  ->  -2 at (1, 1) or (0, 2)
    value, x = _simplex.solve_min([-1, -1], [[1, 1], [1, 0]], [2, 1])
    assert value == -2
    assert sum(x) == 2


def test_equality_via_pair_of_inequalities():
    # min x + y  s.t. x + y >= 3 (as -x - y <= -3)  ->  3
    value, _ = _simplex.solve_min([1, 1], [[-1, -1]], [-3])
    assert value == 3


def test_exact_fractions():
    value, x = _simplex.solve_min(
        [Fraction(1, 3), Fraction(1, 7)], [[-1, 0], [0, -1]], [Fraction(-1, 2), -2]
    )
    assert value == Fraction(1, 6) + Fraction(2, 7)
    assert x == [Fraction(1, 2), Fraction(2)]


def test_infeasible():
    with pytest.raises(_simplex.Infeasible):
        _simplex.solve_min([1], [[1], [-1]], [1, -2])  # x <= 1 and x >= 2


def test_unbounded():
    with pytest.raises(_simplex.Unbounded):
        _simplex.solve_min([-1], [[-1]], [0])


def test_no_constraints():
    value, x = _simplex.solve_min([2, 3], [], [])
    assert value == 0 and x == [0, 0]


# classic degenerate LP on which naive pivoting cycles; Bland must finish
BEALE = (
    [Fraction(-3, 4), 150, Fraction(-1, 50), 6],
    [[Fraction(1, 4), -60, Fraction(-1, 25), 9], [Fraction(1, 2), -90, Fraction(-1, 50), 3],
     [0, 0, 1, 0]],
    [0, 0, 1],
)


def test_beales_cycling_example():
    value, _ = _simplex.solve_min(*BEALE)
    assert value == Fraction(-1, 20)


def test_redundant_equality_rows_survive_phase1():
    # x = 1 stated twice (two >= rows), plus x <= 1: redundancy after phase 1
    value, x = _simplex.solve_min([1], [[-1], [-1], [1]], [-1, -1, 1])
    assert value == 1 and x == [1]


def test_against_scipy_randomized():
    rng = np.random.default_rng(20240817)
    agreed = 0
    for trial in range(350):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 7))
        c = rng.integers(-5, 6, size=n)
        a = rng.integers(-4, 5, size=(m, n))
        b = rng.integers(-3, 8, size=m)
        ref = linprog(c, A_ub=a, b_ub=b, bounds=[(0, None)] * n, method="highs")
        try:
            value, x = _simplex.solve_min(c.tolist(), a.tolist(), b.tolist())
            status = "optimal"
        except _simplex.Infeasible:
            status = "infeasible"
        except _simplex.Unbounded:
            status = "unbounded"
        if ref.status == 0:
            assert status == "optimal", trial
            assert abs(float(value) - ref.fun) < 1e-7, (trial, value, ref.fun)
            xs = np.array([float(v) for v in x])
            assert np.all(a @ xs <= b + 1e-9), trial
            agreed += 1
        elif status == "infeasible":
            assert ref.status == 2, (trial, ref.status)
        else:
            # optimal-here/unbounded-here cases scipy may flag 2, 3 or 4;
            # it must at least not claim a finite optimum
            assert ref.status != 0, (trial, status, ref.status)
    assert agreed > 100  # the comparison actually exercised real optima


# Differential test: the integer tableau makes every decision of the Fraction
# tableau on the same rationals, so both take the same pivots and return the
# same (value, x), or raise the same exception with the same message.

def _outcome(module, lp):
    """repr of (value, x) or of the exception's type and message, and the pivots."""
    pivots = []
    pivot = module._pivot

    def recording(rows, cost, basis, pr, pc):
        pivots.append((pr, pc))
        pivot(rows, cost, basis, pr, pc)

    module._pivot = recording
    try:
        result = repr(module.solve_min(*lp))
    except Exception as exc:  # any exception must match the oracle's
        result = (type(exc).__name__, str(exc))
    finally:
        module._pivot = pivot
    return result, pivots


def assert_same_as_oracle(lp):
    assert _outcome(_simplex, lp) == _outcome(fraction_simplex, lp), lp


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
        assert_same_as_oracle(lp)


@pytest.mark.parametrize("lp", [
    BEALE,
    ([1], [[-1], [-1], [1]], [-1, -1, 1]),  # redundant equality rows
    ([1, 2], [[1, 1], [-1, -1], [1, 0], [-1, 0]], [2, -2, 1, -1]),  # x fixed by two equalities
    ([2, 3], [], []),  # no constraints
    ([-1, 0], [], []),  # no constraints, unbounded
    ([], [], []),
    ([1, 1], [[-1, -1]], [-3]),  # negative rhs
    ([1], [[1], [-1]], [1, -2]),  # infeasible, phase-1 optimum 1
    ([0, 0], [[1, 1], [-2, -2]], [Fraction(1, 3), -1]),  # infeasible, fractional optimum
    ([-1], [[-1]], [0]),  # unbounded
    ([np.int64(-2), Fraction(1, 3), "-1/2", 0.25, True],
     [[1, "2", np.int64(1), 0.5, 1], [Fraction(-1, 7), 0, -1, 0, np.int64(3)]],
     [np.int64(4), "-1/3"]),
    (np.array([-1, -1]), np.array([[1, 2], [3, 1]]), np.array([4, 5])),
    (np.array([-1.5, -1.0]), np.array([[1, 2.5], [3, 1]]), np.array([4.0, 5.0])),
    ([1, math.nan], [[1, 1]], [1]),
    ([1, 1], [[1, math.inf]], [1]),
    ([1, 1], [[1, 1]], [-math.inf]),
    ([1, 1], [[1, "x"]], [math.nan]),  # b is read first
    ([1, None], [[1, 1]], [1]),
    ([1, 1], [[1]], [1]),  # short row
    ([1, 1], [[1, 1], [1, 1]], [1]),  # short b
], ids=["beale", "redundant", "two-equalities", "empty", "empty-unbounded", "no-vars",
        "negative-rhs", "infeasible", "infeasible-fraction", "unbounded", "mixed-types",
        "numpy-int", "numpy-float", "nan-c", "inf-a", "inf-b", "nan-b-first", "none",
        "short-row", "short-b"])
def test_hand_lps_match_oracle(lp):
    assert_same_as_oracle(lp)


def test_narrow_numpy_ints_are_exact():
    # the Fraction tableau kept numpy numerators and so overflowed uint8 here;
    # the integer tableau reads them as Python ints
    lp = ([-3, -1], [[3, 1], [1, 3]], [7, 5])
    narrow = (lp[0], np.array(lp[1], dtype=np.uint8), lp[2])
    with pytest.raises(OverflowError), np.errstate(over="ignore"):
        fraction_simplex.solve_min(*narrow)
    assert _simplex.solve_min(*narrow) == (-7, [Fraction(7, 3), 0])
    assert repr(_simplex.solve_min(*narrow)) == repr(_simplex.solve_min(*lp))


_VALUES = st.integers(-6, 6)
_ENTRIES = st.one_of(
    _VALUES,
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.tuples(_VALUES, st.integers(1, 6)).map(lambda t: f"{t[0]}/{t[1]}"),
    _VALUES.map(lambda v: v / 4),
    _VALUES.map(np.int64),
)
_POISON = st.sampled_from([math.nan, math.inf, -math.inf, "1/0x", None])


@st.composite
def random_lps(draw):
    """Small LPs; about half all-int, degenerate right-hand sides, some
    equality pairs, and now and then one entry Fraction rejects."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    entry = draw(st.sampled_from([_VALUES, _ENTRIES]))
    c = draw(st.lists(entry, min_size=n, max_size=n))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.one_of(st.just(0), entry), min_size=m, max_size=m))
    if entry is _VALUES and m and draw(st.booleans()):  # row 0 as an equality
        a.append([-v for v in a[0]])
        b.append(-b[0])
    if n and m and draw(st.integers(0, 9)) == 0:
        where = draw(st.sampled_from([c, a[0], b]))
        where[draw(st.integers(0, len(where) - 1))] = draw(_POISON)
    return c, a, b


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(random_lps())
def test_random_lps_match_oracle(lp):
    assert_same_as_oracle(lp)


# Warm starts: one tableau, b moved by dual-simplex pivots.  Every dual pivot
# is checked against the dual Bland rule recomputed in Fractions, and every
# value against a cold solve.

def _dual_bland(rows, cost, basis):
    """(row, column) of the dual Bland rule: the negative right-hand side
    with the smallest basic index leaves, and the column with the smallest
    cost[j] / |a_j| over a_j < 0 enters, lowest j on ties."""
    pr = min((i for i, row in enumerate(rows) if row[-1] < 0), key=basis.__getitem__)
    ratios = {j: Fraction(cost[j], -a) for j, a in enumerate(rows[pr][:-1]) if a < 0}
    return pr, min(ratios, key=lambda j: (ratios[j], j))


@contextlib.contextmanager
def dual_pivots_checked():
    """Check every dual pivot made inside against _dual_bland; yields the
    list of those pivots."""
    pivot = _simplex._pivot
    dual = []

    def checked(rows, cost, basis, pr, pc):
        if rows[pr][-1] < 0:  # primal pivots keep every right-hand side >= 0
            assert (pr, pc) == _dual_bland(rows, cost, basis)
            dual.append((pr, pc))
        pivot(rows, cost, basis, pr, pc)

    _simplex._pivot = checked
    try:
        yield dual
    finally:
        _simplex._pivot = pivot


def _outcomes(c, a_ub, b_ub, k, values, warm=None):
    """solve_min with b_ub[k] set to each of values in turn, on one warm dict
    if warm is given: the optimal value, or the type of what it raises.  A warm
    x must be optimal too."""
    out = []
    for v in values:
        b = [v if i == k else bi for i, bi in enumerate(b_ub)]
        try:
            value, x = _simplex.solve_min(c, a_ub, b, warm)
        except (_simplex.Infeasible, _simplex.Unbounded) as exc:
            out.append(type(exc))
            continue
        assert min(x) >= 0 and sum(ci * xi for ci, xi in zip(c, x)) == value
        assert all(sum(ai * xi for ai, xi in zip(row, x)) <= bi for row, bi in zip(a_ub, b))
        out.append(value)
    return out


def test_warm_hand_lp():
    # min -x - 2y  s.t. x + y <= b, y <= 1: -2 - (b - 1) for b >= 1, -2b below
    lp = ([-1, -2], [[1, 1], [0, 1]], [None, 1], 0)
    warm = {}
    with dual_pivots_checked() as dual:
        values = _outcomes(*lp, [3, Fraction(1, 2), 1, Fraction(7, 3), 0, -1], warm)
    assert values == [-4, -1, -2, Fraction(-10, 3), 0, _simplex.Infeasible]
    assert len(dual) == 3  # every move but 1/2 -> 1 leaves the optimal basis
    assert warm == {}  # a raise leaves nothing to start from
    assert _outcomes(*lp, [2], warm) == [-3]
    # another LP in the same dict is solved cold, and replaces the first
    assert _simplex.solve_min([1, 1], [[-1, -1]], [-3], warm)[0] == 3
    assert warm["last"][0] == ([1, 1], [[-1, -1]])


def test_warm_rows_changed_in_place_are_seen():
    # only tuple rows in a tuple are kept uncopied: a list row of a tuple
    # a_ub, or a list c, changed in place between calls, is a new LP
    for c, a_ub in (((-1, -2), ([1, 1], [0, 1])), ([-1, -2], ((1, 1), (0, 1)))):
        warm = {}
        assert _simplex.solve_min(c, a_ub, [3, 1], warm)[0] == -4
        if type(c) is list:
            c[1] = -3
        else:
            a_ub[1][1] = 2  # y <= 1/2
        assert _simplex.solve_min(c, a_ub, [3, 1], warm) == _simplex.solve_min(c, a_ub, [3, 1])
    frozen = ((-1, -2), ((1, 1), (0, 1)))  # kept as given: the next compare is by identity
    warm = {}
    _simplex.solve_min(*frozen, [3, 1], warm)
    assert warm["last"][0][0] is frozen[0] and warm["last"][0][1] is frozen[1]


@st.composite
def lp_paths(draw):
    """Small LPs, a row k and 2-10 distinct quarter-step values for b_k in any
    order.  Most draws end in a cap on the sum of x and move that cap, so the
    optimum varies with it; some are unbounded or turn infeasible."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    c = draw(st.lists(st.integers(-2, 0), min_size=n, max_size=n))
    a = draw(st.lists(st.lists(st.integers(-1, 3), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    b = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    if draw(st.booleans()):  # row 0 as an equality
        a.append([-v for v in a[0]])
        b.append(-b[0])
    if draw(st.integers(0, 4)):  # the cap, as row k
        a.append([1] * n)
        b.append(None)
    k = len(a) - 1 if b[-1] is None else draw(st.integers(0, len(a) - 1))
    values = draw(st.lists(st.integers(-4, 24), min_size=2, max_size=10, unique=True))
    return c, a, b, k, [Fraction(v, 4) for v in values]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(lp_paths())
def test_warm_matches_cold_solves(lp):
    cold = _outcomes(*lp)
    with dual_pivots_checked():
        assert _outcomes(*lp, warm={}) == cold


def test_exponent_lps_warm_match_cold_solves():
    # every crosscheck case with dims <= 5 and quarter-step r, each triple on
    # one warm dict with r rising and falling, against 1025 cold solves
    with dual_pivots_checked() as dual:
        for t in itertools.product(range(1, 6), repeat=3):
            rs = [Fraction(k, 4) for k in range(4 * min(t) + 1)]
            cold = [exponent_solver.dmt_via_lp(*t, r) for r in rs]
            for order in (1, -1):
                warm = {}
                warm_values = [exponent_solver.dmt_via_lp(*t, r, warm) for r in rs[::order]]
                assert warm_values == cold[::order], t
    assert dual


def test_crosscheck_pivot_count(monkeypatch):
    # a warm call that stays inside its basis's range pivots nowhere, and a
    # move from an older b takes the same pivots as moving one r at a time
    pivots = []
    pivot = _simplex._pivot
    monkeypatch.setattr(_simplex, "_pivot", lambda *a: (pivots.append(a[3:]), pivot(*a)))
    report = cli.run_crosscheck(5, True)
    assert report["cases"] == 1025 and not report["mismatches"]
    assert len(pivots) == 1236


def test_crosscheck_reads_no_x(monkeypatch):
    # dmt_via_lp asks for the value only, so no solve of a crosscheck reads
    # x off its tableau; solve_lp still does by default, through the same spy
    points = []
    point = _simplex._point
    monkeypatch.setattr(_simplex, "_point", lambda *a: (points.append(a[-1]), point(*a))[1])
    report = cli.run_crosscheck(3, True)
    assert report["cases"] == 171 and not report["mismatches"]
    assert points == []
    p = exponent_solver.build_program(2, 2, 2, Fraction(1, 2))
    sol = exponent_solver.solve_lp(p)
    assert points == [7]  # x: two alphas, two betas, one t, two s
    assert exponent_solver.solve_lp(p, with_x=False) == exponent_solver.LpSolution(sol.value)
    assert points == [7]


def _rewritten(tableau, old, new, nvar):
    """Every row with an entry in a moved slack taken to b = new, then dual
    pivots: how a warm tableau moved on every call before the range test."""
    rows, cost, basis = tableau
    ncols = nvar + len(rows)
    for slack, (a, b) in enumerate(zip(old, new), nvar):
        if a != b:
            p, q = Fraction(b - a).as_integer_ratio()
            for tab in (*rows, cost):
                if tab[slack]:
                    tab[:] = _simplex._combine(tab, q, -p * tab[slack], {ncols: 1}, (ncols,))
    _simplex._dual_iterate(rows, cost, basis, ncols)


def test_warm_range_test_matches_a_rewrite_on_every_call():
    # every triple with dims <= 5, r up and then down on one warm dict: each
    # call gives the value and x of a tableau rewritten to its b on every
    # call, and whenever the warm tableau sits at the call's b (it was solved
    # cold or moved there) its int rows are that tableau's
    moved = kept = 0
    with dual_pivots_checked():
        for m, n, l in itertools.product(range(1, 6), repeat=3):
            p = exponent_solver.build_program(max(m, n), min(m, n), l, 0)
            c, a_ub, head, tail = exponent_solver._lp_rows(p.alpha_coeffs, p.beta_coeffs)
            rs = [Fraction(k, 4) for k in range(4 * min(m, n, l) + 1)]
            warm, ref, old = {}, None, None
            for r in rs + rs[-2::-1]:
                b = [*head, r, *tail]
                if ref is None:
                    ref = _simplex._optimal_tableau(c, a_ub, b)
                else:
                    _rewritten(ref, old, b, len(c))
                old = b
                rows, cost, basis = ref
                x = [Fraction(0)] * len(c)
                for i, j in enumerate(basis):
                    if j < len(c):
                        x[j] = Fraction(rows[i][-1], rows[i][j])
                assert _simplex.solve_min(c, a_ub, b, warm) == (Fraction(-cost[-2], cost[-1]), x)
                if warm["last"][1] == b:
                    assert warm["last"][2] == ref, (m, n, l, r)
                    moved += 1
                else:
                    kept += 1
    assert moved > 125 and kept > moved
