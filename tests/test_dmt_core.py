"""Unit tests for the closed-form tradeoff module.

The [DERIVED] expected values here were frozen from the exact-LP oracle in
dsdmt.exponent_solver; the full three-route equality sweep lives in
tests/test_acceptance.py.
"""

import itertools
from fractions import Fraction

import pytest

import dsdmt
from dsdmt import dmt_core, exponent_solver
from dsdmt.dmt_core import (
    ChannelTriple,
    DmtCurve,
    OrderedTriple,
    dmt_at,
    dmt_curve,
    dmt_point,
    is_rayleigh_equivalent,
    max_diversity,
    order_triple,
)


def all_triples(max_dim):
    return itertools.product(range(1, max_dim + 1), repeat=3)


class TestOrderTriple:
    def test_sorts_ascending(self):
        assert order_triple((3, 2, 4)) == OrderedTriple(2, 3, 4, 1)

    def test_all_equal(self):
        assert order_triple((2, 2, 2)) == OrderedTriple(2, 2, 2, 0)

    def test_mixed(self):
        assert order_triple((1, 5, 3)) == OrderedTriple(1, 3, 5, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ChannelTriple(0, 1, 1)
        with pytest.raises(ValueError):
            order_triple((1, -2, 3))


class TestDmtPoint:
    def test_2_2_2_full_diversity(self):
        # frozen from the LP oracle
        assert dmt_point(order_triple((2, 2, 2)), 0) == 3

    def test_k_equals_m_is_zero(self):
        for t in [(2, 2, 2), (3, 1, 4), (5, 5, 5), (2, 3, 4)]:
            o = order_triple(t)
            assert dmt_point(o, o.m_small) == 0

    def test_2_3_4_equals_rayleigh(self):
        assert dmt_point(order_triple((2, 3, 4)), 0) == 6

    def test_out_of_range(self):
        o = order_triple((2, 2, 2))
        with pytest.raises(ValueError):
            dmt_point(o, -1)
        with pytest.raises(ValueError):
            dmt_point(o, 3)
        with pytest.raises(ValueError):
            dmt_point(o, 1.5)


class TestDmtCurve:
    def test_2_2_2(self):
        assert dmt_curve((2, 2, 2)).points == ((0, 3), (1, 1), (2, 0))

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_one_antenna_collapses_to_rayleigh_nx1(self, n):
        assert dmt_curve((1, n, n)).points == ((0, n), (1, 0))

    def test_2_3_4_equals_rayleigh_curve(self):
        assert dmt_curve((2, 3, 4)).points == ((0, 6), (1, 2), (2, 0))

    def test_curve_invariants_enforced(self):
        with pytest.raises(ValueError):
            DmtCurve(((0, 3), (1, 1), (2, 1)))  # d(M) != 0
        with pytest.raises(ValueError):
            DmtCurve(((0, 1), (1, 2), (2, 0)))  # increasing
        with pytest.raises(ValueError):
            DmtCurve(((0, 4), (1, 3), (2, 0)))  # concave decrements 1, 3

    def test_monotone_and_convex_exhaustive(self):
        for t in all_triples(6):
            ds = [d for _, d in dmt_curve(t).points]
            drops = [a - b for a, b in zip(ds, ds[1:])]
            assert all(a >= b for a, b in zip(ds, ds[1:]))
            assert all(a >= b for a, b in zip(drops, drops[1:]))
            assert ds[-1] == 0


class TestCurveMemo:
    """dmt_curve keeps a tuple of ints as its memo key; (True, 2, 3) == (1, 2, 3)
    and hashes alike, so an equal triple of other types must still be checked."""

    @pytest.mark.parametrize("cached_first", [False, True])
    @pytest.mark.parametrize("bad", [(True, 2, 3), (0, 2, 3), (1.0, 2, 3), (1, 2, 3, 4)])
    def test_bad_triples_still_raise(self, cached_first, bad):
        dmt_core._curve.cache_clear()
        if cached_first:
            dmt_curve((1, 2, 3))
            dmt_curve((3, 2, 1))
        with pytest.raises((ValueError, TypeError)) as raised:
            dmt_curve(bad)
        with pytest.raises(type(raised.value)) as direct:
            order_triple(bad)
        assert str(raised.value) == str(direct.value)

    def test_other_forms_of_a_cached_triple(self):
        dmt_core._curve.cache_clear()
        tuple_curve = dmt_curve((1, 2, 3))
        assert dmt_curve([3, 1, 2]) == dmt_curve(ChannelTriple(2, 3, 1)) == tuple_curve
        assert dmt_curve((1, 2, 3)) is tuple_curve  # the memo answers


class TestDmtAt:
    def test_midpoint(self):
        c = dmt_curve((2, 2, 2))
        assert dmt_at(c, Fraction(1, 2)) == 2

    def test_endpoint_and_integers(self):
        c = dmt_curve((3, 4, 5))
        assert dmt_at(c, c.max_gain) == 0
        for k, d in c.points:
            assert dmt_at(c, k) == d

    def test_exact_rational(self):
        c = dmt_curve((2, 2, 2))
        assert dmt_at(c, Fraction(1, 3)) == Fraction(3) - Fraction(2, 3)

    def test_domain_errors(self):
        c = dmt_curve((2, 2, 2))
        with pytest.raises(ValueError):
            dmt_at(c, -Fraction(1, 4))
        with pytest.raises(ValueError):
            dmt_at(c, Fraction(9, 4))


    @pytest.mark.parametrize("r", [-1, 3, -0.25, 2.25, Fraction(-1, 4), Fraction(9, 4)])
    def test_out_of_range_r_of_any_type(self, r):
        with pytest.raises(ValueError, match=rf"^r must lie in \[0, 2\], got {Fraction(r)}$"):
            dmt_at(dmt_curve((2, 2, 2)), r)

    def test_matches_the_fraction_formula(self):
        # the int interpolation over r's numerator and denominator against
        # the formula in Fraction arithmetic, for r of every type
        for t in ((1, 1, 1), (2, 2, 2), (2, 3, 4), (3, 5, 5), (4, 4, 9)):
            c = dmt_curve(t)
            m = c.max_gain
            for den in (1, 2, 3, 4, 7):
                for num in range(m * den + 1):
                    r = Fraction(num, den)
                    k = int(r)
                    d_lo, d_hi = c.points[k][1], c.points[min(k + 1, m)][1]
                    value = d_lo + (d_hi - d_lo) * (r - k)
                    for given in (r, str(r)) if den > 1 else (r, num // den, float(r)):
                        got = dmt_at(c, given)
                        assert type(got) is Fraction and got == value, (t, given)


class TestRayleighEquivalence:
    def test_examples(self):
        assert is_rayleigh_equivalent((2, 3, 4)) is True
        assert is_rayleigh_equivalent((2, 2, 2)) is False

    def test_m_equal_one_always(self):
        for n in range(1, 7):
            for l in range(n, 7):
                assert is_rayleigh_equivalent((1, n, l)) is True

    def test_condition_matches_curve_equality_exhaustive(self):
        # the 2*max+1 >= sum condition predicts curve equality both ways
        for t in all_triples(6):
            o = order_triple(t)
            curve = dmt_curve(t)
            ray = tuple((o.m_small - k) * (o.n_mid - k) for k in range(o.m_small + 1))
            equal = tuple(d for _, d in curve.points) == ray
            assert is_rayleigh_equivalent(t) == equal, t


class TestMaxDiversity:
    def test_bound_attained(self):
        md = max_diversity((2, 3, 4))
        assert md == (6, 6, True)

    def test_bound_missed(self):
        md = max_diversity((2, 2, 2))
        assert md.value == 3 and md.upper_bound == 4 and not md.attained

    def test_trivial(self):
        assert max_diversity((1, 1, 1)) == (1, 1, True)

    def test_upper_bound_is_product_over_max(self):
        for t in all_triples(5):
            md = max_diversity(t)
            n_t, n_s, n_r = t
            assert md.upper_bound == n_t * n_s * n_r // max(t)


class TestCurveProperties:
    def test_permutation_invariance_exhaustive(self):
        for t in all_triples(6):
            base = dmt_curve(t).points
            for perm in itertools.permutations(t):
                assert dmt_curve(perm).points == base

    def test_rayleigh_upper_bound_exhaustive(self):
        for t in all_triples(6):
            o = order_triple(t)
            for k in range(o.m_small + 1):
                assert dmt_point(o, k) <= (o.m_small - k) * (o.n_mid - k)

    def test_tail_equality_exhaustive(self):
        # the curve meets the Rayleigh bound from k >= M - delta - 1 on
        for t in all_triples(6):
            o = order_triple(t)
            for k in range(max(o.m_small - o.delta - 1, 0), o.m_small + 1):
                assert dmt_point(o, k) == (o.m_small - k) * (o.n_mid - k)


class TestCaseFormulaConsistency:
    """The three per-regime closed forms agree with the unified formula."""

    @staticmethod
    def _floor_quarter_sq(x):
        return (max(x, 0) ** 2) // 4

    def test_all_regimes_exhaustive(self):
        for m, n, l in all_triples(6):
            if n > m:
                m, n = n, m
            o = order_triple((m, n, l))
            for k in range(min(m, n, l) + 1):
                unified = dmt_point(o, k)
                if n >= l:
                    local = (l - k) * (n - k) - self._floor_quarter_sq(l - (m - n) - k)
                elif l <= m:
                    local = (l - k) * (n - k) - self._floor_quarter_sq(n - (m - l) - k)
                else:
                    local = (m - k) * (n - k) - self._floor_quarter_sq(n - (l - m) - k)
                assert local == unified, (m, n, l, k)


def test_package_namespace_is_the_submodule_exports():
    assert dsdmt.__all__ == [*dmt_core.__all__, *exponent_solver.__all__, "__version__"]
    assert [name for name in dsdmt.__all__ if not hasattr(dsdmt, name)] == []
