"""Closed-form diversity-multiplexing tradeoff of double-scattering channels.

The tradeoff of a channel with ``n_t`` transmit antennas, ``n_s`` scatterers
and ``n_r`` receive antennas depends only on the sorted triple (M, N, L) and
is an integer-valued piecewise-linear function of the multiplexing gain.
Everything in this module is exact integer/rational arithmetic: downstream
cross-checks against the linear-program route in :mod:`dsdmt.exponent_solver`
assert literal equality, never closeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "ChannelTriple",
    "OrderedTriple",
    "DmtCurve",
    "MaxDiversity",
    "order_triple",
    "dmt_point",
    "dmt_curve",
    "dmt_at",
    "is_rayleigh_equivalent",
    "max_diversity",
]


@dataclass(frozen=True)
class ChannelTriple:
    """Antenna/scatterer counts (n_t, n_s, n_r) of a double-scattering channel."""

    n_t: int
    n_s: int
    n_r: int

    def __post_init__(self):
        for name in ("n_t", "n_s", "n_r"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_t, self.n_s, self.n_r)


@dataclass(frozen=True)
class OrderedTriple:
    """Sorted channel dimensions M <= N <= L and the gap delta = L - N."""

    m_small: int
    n_mid: int
    l_large: int
    delta: int

    def __post_init__(self):
        if not 1 <= self.m_small <= self.n_mid <= self.l_large:
            raise ValueError(f"not sorted: {self}")
        if self.delta != self.l_large - self.n_mid:
            raise ValueError(f"delta must equal L - N, got {self}")


class MaxDiversity(NamedTuple):
    """d(0) together with the diversity-order upper bound M*N and whether it is met."""

    value: int
    upper_bound: int
    attained: bool


def order_triple(t) -> OrderedTriple:
    """Sort a channel triple ascending into (M, N, L) with delta = L - N."""
    m, n, l = sorted((t if isinstance(t, ChannelTriple) else ChannelTriple(*t)).as_tuple())
    return OrderedTriple(m, n, l, l - n)


def dmt_point(o: OrderedTriple, k: int) -> int:
    """Diversity gain d(k) of the ordered triple at integer multiplexing gain k.

    d(k) = (M-k)(N-k) - floor(((M - delta - k)^+)^2 / 4), for 0 <= k <= M.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 0 <= k <= o.m_small:
        raise ValueError(f"k must lie in [0, {o.m_small}], got {k}")
    plus = max(o.m_small - o.delta - k, 0)
    return (o.m_small - k) * (o.n_mid - k) - (plus * plus) // 4


@dataclass(frozen=True)
class DmtCurve:
    """Piecewise-linear tradeoff through the integer points (k, d(k)), k = 0..M.

    Invariants checked at construction: d non-increasing with d(M) = 0, and the
    per-step decrements d(k) - d(k+1) non-increasing (the curve is convex).
    """

    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ks = [k for k, _ in self.points]
        ds = [d for _, d in self.points]
        if ks != list(range(len(ks))) or len(ks) < 2:
            raise ValueError(f"points must cover k = 0..M, got k-values {ks}")
        if ds[-1] != 0:
            raise ValueError(f"d(M) must be 0, got {ds[-1]}")
        if any(a < b for a, b in zip(ds, ds[1:])):
            raise ValueError(f"d(k) must be non-increasing, got {ds}")
        drops = [a - b for a, b in zip(ds, ds[1:])]
        if any(a < b for a, b in zip(drops, drops[1:])):
            raise ValueError(f"curve must be convex, got decrements {drops}")

    @property
    def max_gain(self) -> int:
        return self.points[-1][0]


def dmt_curve(t) -> DmtCurve:
    """Full tradeoff curve of a channel triple, in any component order."""
    # only three ints key the memo as given: (True, 2, 3) == (1, 2, 3) must still raise
    ints = type(t) is tuple and len(t) == 3 and type(t[0]) is type(t[1]) is type(t[2]) is int
    return _curve(t if ints else order_triple(t))


@lru_cache(maxsize=8192)  # every triple and ordered triple to dims 18: 5832 and 1140
def _curve(t) -> DmtCurve:  # dmt_curve, once per tuple of ints and per ordered triple
    if type(t) is tuple:  # checked and sorted once, then the ordered triple's entry
        return _curve(order_triple(t))
    return DmtCurve(tuple((k, dmt_point(t, k)) for k in range(t.m_small + 1)))


def dmt_at(c: DmtCurve, r) -> Fraction:
    """Evaluate the curve at rational multiplexing gain r by exact interpolation."""
    m, points = c.max_gain, c.points
    num, den = (r if type(r) is Fraction else Fraction(r)).as_integer_ratio()  # interpolated
    if not 0 <= num <= m * den:  # in ints, one Fraction at the end
        raise ValueError(f"r must lie in [0, {m}], got {Fraction(num, den)}")
    k = num // den
    if k == m:
        return Fraction(points[m][1])
    (_, d_lo), (_, d_hi) = points[k : k + 2]
    return Fraction(d_lo * den + (d_hi - d_lo) * (num - k * den), den)


def is_rayleigh_equivalent(t) -> bool:
    """Whether the double-scattering curve equals the M x N Rayleigh curve.

    True iff L + 1 >= M + N, equivalently 2*max(triple) + 1 >= sum(triple).
    """
    o = order_triple(t)
    return o.l_large + 1 >= o.m_small + o.n_mid


def max_diversity(t) -> MaxDiversity:
    """d(0) and whether it attains the upper bound M*N = n_t*n_s*n_r / max."""
    o = order_triple(t)
    value = dmt_point(o, 0)
    bound = o.m_small * o.n_mid
    return MaxDiversity(value, bound, value == bound)
