"""Exponent-program construction plus the LP and greedy routes.

The (2,2,2) beta coefficients follow m - n + l - j, giving (1, 0); with
those the LP reproduces d(0) = 3, which pins the convention exactly (any
other offset breaks the closed-form equality swept in the acceptance run).
"""

import itertools
from fractions import Fraction

import fraction_simplex
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsdmt import exponent_solver
from dsdmt.dmt_core import dmt_at, dmt_curve
from dsdmt.exponent_solver import (
    ExponentProgram,
    ReducedObjective,
    ReductionInvariantError,
    _plus_pairs,
    build_program,
    dmt_via_greedy,
    dmt_via_lp,
    greedy_reduce,
    minimize_threshold,
    solve_lp,
)


def three_case_dims(m, n, l):
    """(alpha_dim, beta_dim) by the paper's three cases, as the package once
    classified them; n <= m."""
    if n >= l:  # case A
        return l, l
    if l <= m:  # case B: n < l <= m
        return n, l
    return n, m  # case C: n <= m < l, the scatterer layer rank deficient


def three_case_coeffs(m, n, l):
    alpha_dim, beta_dim = three_case_dims(m, n, l)
    s = l + m
    return (tuple(n - i for i in range(alpha_dim)),
            tuple(s - n - (j + 1) if (j + 1) <= n + 1 else s + 1 - 2 * (j + 1)
                  for j in range(beta_dim)))


class TestBuildProgram:
    def test_2_2_2(self):
        p = build_program(2, 2, 2, 0)
        assert p.alpha_coeffs == (2, 1)
        assert p.beta_coeffs == (1, 0)
        assert _plus_pairs(p.alpha_dim, p.beta_dim) == ((0, 1),)
        assert p.alpha_dim == 2

    def test_3_1_2_case_b(self):
        p = build_program(3, 1, 2, 0)
        assert p.alpha_coeffs == (1,)
        assert p.beta_coeffs == (3, 2)  # l + m - n - j for j = 1, 2
        assert _plus_pairs(p.alpha_dim, p.beta_dim) == ((0, 1),)
        assert p.alpha_dim == 1

    def test_requires_reciprocity_applied(self):
        with pytest.raises(ValueError):
            build_program(2, 3, 2, 0)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            build_program(2, 2, 0, 0)

    def test_matches_three_case_table(self):
        for m in range(1, 9):
            for n in range(1, m + 1):
                for l in range(1, 9):
                    p = build_program(m, n, l, 0)
                    assert (p.alpha_dim, p.beta_dim) == three_case_dims(m, n, l)
                    assert (p.alpha_coeffs, p.beta_coeffs) == three_case_coeffs(m, n, l)
                    # the LP's coupling rows follow this order: i first, then j rising
                    pairs = _plus_pairs(p.alpha_dim, p.beta_dim)
                    assert pairs == tuple(sorted(set(pairs)))

    def test_4_1_3_second_branch(self):
        # j = 3 >= n + 2 switches to the l + m + 1 - 2j slope
        p = build_program(4, 1, 3, 0)
        assert p.beta_coeffs == (5, 4, 2)

    def test_case_c_swaps_l_and_m(self):
        p = build_program(2, 2, 5, 0)
        q = build_program(5, 2, 2, 0)
        assert p.beta_coeffs == q.beta_coeffs
        assert p.alpha_coeffs == q.alpha_coeffs

    def test_alpha_dim_is_min(self):
        for m in range(1, 6):
            for n in range(1, m + 1):
                for l in range(1, 6):
                    assert build_program(m, n, l, 0).alpha_dim == min(m, n, l)

    def test_full_multiplexing_gives_zero(self):
        p = build_program(3, 2, 4, 2)
        assert solve_lp(p) == 0
        assert minimize_threshold(greedy_reduce(p), 2) == 0


def fresh_program(m, n, l, r):
    """build_program as it was before its per-shape memo: every call builds
    and checks the whole program."""
    if min(m, n, l) < 1:
        raise ValueError(f"dimensions must be positive, got ({m}, {n}, {l})")
    if n > m:
        raise ValueError(f"reciprocity not applied: n={n} > m={m}")
    alpha_dim, beta_dim = min(n, l), min(m, l)
    s = l + m
    alpha_coeffs = tuple(n - i for i in range(alpha_dim))
    beta_coeffs = tuple(
        s - n - (j + 1) if (j + 1) <= n + 1 else s + 1 - 2 * (j + 1)
        for j in range(beta_dim)
    )
    return ExponentProgram(m=m, n=n, l=l, alpha_dim=alpha_dim, beta_dim=beta_dim,
                           alpha_coeffs=alpha_coeffs, beta_coeffs=beta_coeffs, r=Fraction(r))


class TestProgramMemo:
    def test_memoized_equals_fresh(self):
        # every shape with dims <= 8 and quarter-step r, twice, so the second
        # pass reads the memo: equal to a program built from scratch, r a
        # Fraction in either case, and the coefficient tuples shared per shape
        for _ in range(2):
            for m in range(1, 9):
                for n in range(1, m + 1):
                    for l in range(1, 9):
                        first = build_program(m, n, l, 0)
                        for k in range(4 * min(n, l) + 1):
                            r = Fraction(k, 4)
                            for given_r in (r, float(r)) if k % 2 else (r, k // 4, str(r)):
                                p = build_program(m, n, l, given_r)
                                assert p == fresh_program(m, n, l, given_r), (m, n, l, given_r)
                                assert type(p.r) is Fraction
                                assert p.alpha_coeffs is first.alpha_coeffs
                                assert p.beta_coeffs is first.beta_coeffs

    @pytest.mark.parametrize("dims", [(2, 3, 2), (1, 2, 1), (0, 0, 1), (2, 2, 0), (2, 0, 2),
                                      (-1, -1, 3)])
    def test_warm_memo_still_checks(self, dims):
        build_program(2, 2, 2, 0)
        build_program(3, 2, 2, 0)
        for _ in range(2):  # a raise is not memoized
            with pytest.raises(ValueError) as raised:
                build_program(*dims, 0)
            with pytest.raises(ValueError) as expected:
                fresh_program(*dims, 0)
            assert str(raised.value) == str(expected.value)

    def test_dimensions_checked_before_r(self):
        with pytest.raises(ValueError, match="reciprocity"):
            build_program(2, 3, 2, "not a number")

    def test_post_init_still_checks(self):
        p = build_program(3, 2, 2, 1)
        with pytest.raises(ValueError, match="alpha_dim"):
            ExponentProgram(3, 2, 2, 1, p.beta_dim, p.alpha_coeffs[:1], p.beta_coeffs, p.r)
        with pytest.raises(ValueError, match="out of range"):
            ExponentProgram(3, 2, 2, p.alpha_dim, p.beta_dim, (2, 0), p.beta_coeffs, p.r)


class TestSolveLp:
    def test_built_and_direct_programs_read_one_hull(self):
        # a built program carries its shape's hull, made once per shape, before any solve,
        # and no LP rows; a program made directly, from equal coefficient tuples of its own,
        # makes an equal hull on its first solve, and both give the greedy route's values
        exponent_solver._shape.cache_clear()  # so that no earlier test has read a shape's LP
        built = build_program(4, 3, 5, Fraction(1, 2))
        direct = ExponentProgram(4, 3, 5, built.alpha_dim, built.beta_dim,
                                 tuple([*built.alpha_coeffs]), tuple([*built.beta_coeffs]),
                                 Fraction(5, 4))
        assert direct.alpha_coeffs is not built.alpha_coeffs
        assert vars(built)["_hull"] is vars(build_program(4, 3, 5, 3))["_hull"]
        assert "_lp" not in vars(built) and "_hull" not in vars(direct)
        assert solve_lp(built) == dmt_via_greedy(4, 3, 5, Fraction(1, 2))
        assert solve_lp(direct) == dmt_via_greedy(4, 3, 5, Fraction(5, 4))
        assert vars(direct)["_hull"] == built._hull

    def test_2_2_2_values(self):
        assert solve_lp(build_program(2, 2, 2, 0)) == 3
        assert solve_lp(build_program(2, 2, 2, 2)) == 0
        assert solve_lp(build_program(2, 2, 2, Fraction(1, 2))) == 2

    def test_a_program_with_no_alpha_is_0(self):
        # made directly, with every dimension 0 (build_program rejects it): its LP has the sum
        # row alone, so its value at r = 0 is 0, and its hull is one flat point
        p = ExponentProgram(0, 0, 0, 0, 0, (), (), Fraction(0))
        assert solve_lp(p) == 0 == fraction_simplex.solve_min(*p._lp[:2], [0])[0]

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            solve_lp(build_program(2, 2, 2, -1))

    def test_vertex_is_feasible(self):
        # the optimal vertex of the program's own LP, by the Fraction simplex oracle; its
        # value is solve_lp's
        for m, n, l, r in [(2, 2, 2, 0), (4, 2, 3, 1), (2, 2, 5, Fraction(3, 2)), (5, 5, 5, 2)]:
            p = build_program(m, n, l, Fraction(r))
            na, nb = p.alpha_dim, p.beta_dim
            c, rows, fixed = p._lp
            lp_value, x = fraction_simplex.solve_min(c, rows, [*fixed, p.r])
            assert lp_value == solve_lp(p)
            a, b = x[:na], x[na : na + nb]
            assert all(x <= y for x, y in zip(a, a[1:]))
            assert all(x <= y for x, y in zip(b, b[1:]))
            assert all(b[i] >= 0 for i in range(len(b)))
            assert all(a[i] >= b[i] for i in range(p.alpha_dim))
            assert sum(max(1 - x, 0) for x in a) <= p.r
            # vertex reproduces the optimal objective
            value = sum(c * x for c, x in zip(p.alpha_coeffs, a))
            value += sum(c * x for c, x in zip(p.beta_coeffs, b))
            value += sum(max(a[i] - b[j], 0) for i, j in _plus_pairs(p.alpha_dim, p.beta_dim))
            assert value == lp_value


class TestGreedyReduce:
    def test_2_2_2(self):
        # beta_2 has coefficient 0 and may not pass alpha_1; reduced (2, 1)
        assert greedy_reduce(build_program(2, 2, 2, 0)).coeffs == (2, 1)

    def test_1_1_1(self):
        assert greedy_reduce(build_program(1, 1, 1, 0)).coeffs == (1,)

    def test_4_2_3_case_b(self):
        ro = greedy_reduce(build_program(4, 2, 3, 0))
        assert ro.coeffs == (4, 2)
        # threshold minimization reproduces the closed-form points
        curve = dmt_curve((4, 2, 3))
        for k, d in curve.points:
            assert minimize_threshold(ro, k) == d

    def test_5_5_5(self):
        assert greedy_reduce(build_program(5, 5, 5, 0)).coeffs == (7, 5, 4, 2, 1)

    def test_coefficients_non_increasing_everywhere(self):
        for m in range(1, 7):
            for n in range(1, m + 1):
                for l in range(1, 7):
                    coeffs = greedy_reduce(build_program(m, n, l, 0)).coeffs
                    assert all(a >= b for a, b in zip(coeffs, coeffs[1:]))
                    assert all(c >= 0 for c in coeffs)

    def test_invariant_violation_raises(self):
        with pytest.raises(ReductionInvariantError):
            ReducedObjective((1, 2))
        with pytest.raises(ReductionInvariantError):
            ReducedObjective((2, -1))


class TestMinimizeThreshold:
    def test_2_2_2_at_zero(self):
        assert minimize_threshold(ReducedObjective((2, 1)), 0) == 3

    def test_full_rate_zero(self):
        assert minimize_threshold(ReducedObjective((5, 3, 2)), 3) == 0

    def test_single_coefficient_half(self):
        assert minimize_threshold(ReducedObjective((7,)), Fraction(1, 2)) == Fraction(7, 2)

    def test_domain_errors(self):
        ro = ReducedObjective((2, 1))
        with pytest.raises(ValueError):
            minimize_threshold(ro, -Fraction(1, 2))
        with pytest.raises(ValueError):
            minimize_threshold(ro, Fraction(5, 2))

    @pytest.mark.parametrize("r", [-1, 3, -0.25, 2.25, Fraction(-1, 4), Fraction(9, 4)])
    def test_out_of_range_r_of_any_type(self, r):
        with pytest.raises(ValueError, match=rf"^r must lie in \[0, 2\], got {Fraction(r)}$"):
            minimize_threshold(ReducedObjective((2, 1)), r)

    def test_matches_the_fraction_formula(self):
        # the int arithmetic over r's numerator and denominator against the
        # formula in Fraction arithmetic, for r of every type the routes pass
        for coeffs in ((7,), (2, 1), (4, 2, 1), (9, 9, 3, 0)):
            ro, dim = ReducedObjective(coeffs), len(coeffs)
            for den in (1, 2, 3, 4, 7):
                for num in range(dim * den + 1):
                    r = Fraction(num, den)
                    k = int(r)
                    value = Fraction(sum(coeffs[k + 1 :]))
                    if k < dim:
                        value += coeffs[k] * (1 - (r - k))
                    for given in (r, str(r)) if den > 1 else (r, num // den, float(r)):
                        got = minimize_threshold(ro, given)
                        assert type(got) is Fraction and got == value, (coeffs, given)

    def test_matches_brute_force_grid(self):
        # independent oracle: dense grid search over feasible alphas; the grid rises,
        # so its combinations with replacement are exactly the non-decreasing alphas,
        # each with its outage sum and objective once, for every r
        ro = ReducedObjective((4, 2, 1))
        steps = 40
        grid = [Fraction(i, steps) for i in range(steps + 1)]
        points = [(sum(max(1 - a, 0) for a in alpha), sum(c * a for c, a in zip(ro.coeffs, alpha)))
                  for alpha in itertools.combinations_with_replacement(grid, 3)]
        for r in (Fraction(0), Fraction(1, 2), Fraction(5, 4), Fraction(2), Fraction(3)):
            best = min(val for outage, val in points if outage <= r)
            assert minimize_threshold(ro, r) == best


class TestDmtViaLp:
    def test_role_order_irrelevant(self):
        for perm in itertools.permutations((2, 3, 4)):
            assert dmt_via_lp(*perm, 1) == 2

    def test_1_1_1(self):
        assert dmt_via_lp(1, 1, 1, 0) == 1

    def test_5_5_1(self):
        assert dmt_via_lp(5, 5, 1, 0) == 5

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            dmt_via_lp(2, 2, 2, 3)
        with pytest.raises(ValueError):
            dmt_via_lp(2, 2, 2, Fraction(-1, 4))

    def test_checks_every_r(self):
        # each call reads its own r, whatever the calls before it: one value per r, of any
        # type, in either order, the greedy route's and (4, 2, 3)'s Rayleigh (2 - k)(3 - k)
        # between integers; and a ValueError for each r out of range, after a call in range
        rs = (1, "1/2", 0, 2, Fraction(1, 2), 1)
        assert [dmt_via_lp(4, 2, 3, r) for r in rs] == [dmt_via_greedy(4, 2, 3, r) for r in rs]
        assert [dmt_via_lp(4, 2, 3, r) for r in rs[::-1]] == [2, 4, 0, 6, 4, 2]
        for r in (3, Fraction(-1, 4)):
            assert dmt_via_lp(2, 2, 2, 2) == 0
            with pytest.raises(ValueError):
                dmt_via_lp(2, 2, 2, r)


class TestReciprocalProgramMemo:
    """Each shape's program is checked once, and every r is read by its ints:
    0.5, "1/2" and Fraction(1, 2) must give one program and one value on the LP
    and the greedy route, and a bad r the same message with the memo cleared or
    filled."""

    @pytest.mark.parametrize("order", [(0.5, "1/2", Fraction(1, 2)), (Fraction(1, 2), 0.5, "1/2")])
    def test_r_of_any_type_gives_one_value(self, order):
        exponent_solver._shape.cache_clear()
        for r in order:
            assert dmt_via_lp(3, 2, 4, r) == dmt_via_greedy(3, 2, 4, r) == 4
            assert dmt_via_lp(2, 3, 4, r) == 4
            assert exponent_solver.build_program(3, 2, 4, r).r == Fraction(1, 2)

    @pytest.mark.parametrize("route", [dmt_via_lp, dmt_via_greedy])
    @pytest.mark.parametrize("r", [3, Fraction(-1, 4), "9/4", 2.5])
    def test_out_of_range_r_raises_alike_after_a_valid_call(self, route, r):
        messages = []
        for valid_first in (False, True):
            exponent_solver._shape.cache_clear()
            if valid_first:
                route(2, 2, 2, 1)
                route(2, 2, 2, 2)
            with pytest.raises(ValueError) as raised:
                route(2, 2, 2, r)
            messages.append(str(raised.value))
        assert messages[0] == messages[1] and messages[0].startswith("r must lie in [0, 2]")


@st.composite
def triples_and_rates(draw):
    """A triple with components up to 30 and a rational r in [0, min] with
    denominator up to 12."""
    m, n, l = (draw(st.integers(1, 30)) for _ in range(3))
    q = draw(st.integers(1, 12))
    return m, n, l, Fraction(draw(st.integers(0, min(m, n, l) * q)), q)


class TestRouteAgreement:
    """Quick oracle sweep at small dims; the <=5 sweep is in acceptance."""

    def test_all_routes_agree_dims_3(self):
        for m, n, l in itertools.product(range(1, 4), repeat=3):
            curve = dmt_curve((m, n, l))
            r = Fraction(0)
            while r <= min(m, n, l):
                expected = dmt_at(curve, r)
                assert dmt_via_lp(m, n, l, r) == expected, (m, n, l, r)
                assert dmt_via_greedy(m, n, l, r) == expected, (m, n, l, r)
                r += Fraction(1, 4)

    def test_piecewise_linearity_between_knots(self):
        for m, n, l in [(3, 2, 4), (2, 2, 2), (4, 4, 3)]:
            for k in range(min(m, n, l)):
                v0 = dmt_via_lp(m, n, l, k)
                v1 = dmt_via_lp(m, n, l, k + 1)
                for num in (1, 2, 3):
                    r = k + Fraction(num, 4)
                    expected = v0 + (v1 - v0) * Fraction(num, 4)
                    assert dmt_via_lp(m, n, l, r) == expected

    def test_lp_curve_equals_closed_form_for_every_r(self):
        # every triple with dims <= 6: the LP route's curve is affine on each [k, k + 1], as
        # its hull's vertices are integer points (test_envelope.py), and the closed form is
        # affine between integer corners, so agreeing at the corners in [0, min(m, n, l)]
        # proves the two curves equal there for every real r, not only on a grid; the
        # midpoints check that the route reads the segment it should
        checked = 0
        for t in itertools.product(range(1, 7), repeat=3):
            curve, top = dmt_curve(t), min(t)
            for r in [*range(top + 1), *(k + Fraction(1, 2) for k in range(top))]:
                assert dmt_via_lp(*t, r) == dmt_at(curve, r), (t, r)
                checked += 1
        assert checked == sum(2 * min(t) + 1 for t in itertools.product(range(1, 7), repeat=3))

    @settings(derandomize=True, max_examples=500, deadline=None, database=None)
    @given(triples_and_rates())
    def test_greedy_matches_closed_form_dims_30(self, case):
        m, n, l, r = case
        assert dmt_via_greedy(m, n, l, r) == dmt_at(dmt_curve((m, n, l)), r)
