"""Exact real-root machinery: Sturm counting, isolation, multiplicity.

All decisions are exact and read one integer remainder sequence of (f, f')
from ``polynomial._remainder_sequence``.  Its sign variations count the
distinct real roots of f, also when f has multiple roots; its last entry is
gcd(f, f'), so f is real-rooted iff the count on the whole line is
deg f - deg gcd(f, f'), and simple-rooted iff that gcd is constant.
Decisions read int lists end to end: f enters once as its primitive integer
coefficients, f' is taken on them, and the division by gcd(f, f') at an
endpoint that is a multiple root is an exact integer division.
Isolation runs once on the square-free part of f, the product of its Yun
factors, and returns disjoint open intervals with rational non-root
endpoints, except that rational roots are pinned to exact points.  Each
location's multiplicity is read from the Yun factors by sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import ZeroPolynomialError
from .polynomial import Polynomial, _remainder_sequence, gcd

INF = float("inf")
NEG_INF = float("-inf")


# -- simplest rational in an interval --------------------------------------


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Rational with the smallest denominator in the open interval (lo, hi).

    When the interval contains integers the one nearest zero is returned.
    Splitting intervals at these points keeps bisection endpoints small and
    discovers small-denominator rational roots early.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -_simplest_nonneg(-hi, -lo)
    return _simplest_nonneg(lo, hi)


def _simplest_nonneg(lo: Fraction, hi: Fraction) -> Fraction:
    # 0 <= lo < hi; continued-fraction descent
    whole = lo.numerator // lo.denominator
    if Fraction(whole + 1) < hi:
        return Fraction(whole + 1)
    a = lo - whole  # 0 <= a < 1
    b = hi - whole  # a < b <= 1 since whole + 1 >= hi
    if a == 0:
        # fractional interval (0, b): minimal denominator is floor(1/b) + 1
        return whole + Fraction(1, b.denominator // b.numerator + 1)
    return whole + 1 / _simplest_nonneg(1 / b, 1 / a)


# -- sign evaluation on integer coefficient lists ---------------------------


def _int_sign_at(cs: Sequence[int], x: Fraction | float) -> int:
    """Sign of the polynomial with integer coefficients cs at x (or +-inf)."""
    if x == INF:
        v = cs[-1]
    elif x == NEG_INF:
        v = cs[-1] if (len(cs) - 1) % 2 == 0 else -cs[-1]
    else:
        p, q = x.numerator, x.denominator
        acc = cs[-1]
        qq = 1
        for c in reversed(cs[:-1]):
            qq *= q
            acc = acc * p + c * qq
        v = acc
    return (v > 0) - (v < 0)


def _sturm_sequence(cs: list[int]) -> list[list[int]]:
    """Signed remainder sequence of (f, f') from f's primitive integer
    coefficients cs; f' enters made primitive too."""
    df = [k * c for k, c in enumerate(cs)][1:]
    content = math.gcd(*df) or 1
    return _remainder_sequence(cs, [c // content for c in df])


def _variations(seq: Sequence[Sequence[int]], x: Fraction | float) -> int:
    """Sign variations of the sequence at x (or +-inf), zeros skipped."""
    signs = [s for s in (_int_sign_at(cs, x) for cs in seq) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _count(seq: list[list[int]], lo: Fraction | float, hi: Fraction | float) -> int:
    """Distinct roots in (lo, hi] of the head of a Sturm sequence of (f, f').

    Every entry is a multiple of the last one, gcd(f, f').  At a multiple
    root of f all entries vanish, so when an endpoint is a root of the last
    entry the count is taken on the entries divided by it.
    """
    last = seq[-1]
    if len(last) > 1 and 0 in (_int_sign_at(last, lo), _int_sign_at(last, hi)):
        seq = [_exact_quotient(p, last) for p in seq]
    return _variations(seq, lo) - _variations(seq, hi)


def _exact_quotient(p: list[int], d: list[int]) -> list[int]:
    """p / d for integer lists with d primitive and dividing p; by Gauss's
    lemma the quotient has integer coefficients, so each step is exact."""
    r, q = list(p), []
    for k in range(len(p) - len(d), -1, -1):
        c = r[k + len(d) - 1] // d[-1]
        q.append(c)
        for j, dj in enumerate(d):
            r[k + j] -= c * dj
    return q[::-1]


# -- bounds, square-free parts ----------------------------------------------


def cauchy_root_bound(f: Polynomial) -> Fraction:
    """B with every real root of f strictly inside (-B, B)."""
    if f.is_zero:
        raise ZeroPolynomialError("root bound of the zero polynomial")
    if f.degree == 0:
        return Fraction(1)
    lead = abs(f.leading)
    biggest = max(abs(c) for c in f.coeffs[:-1])
    return 1 + biggest / lead


def squarefree_part(f: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors, primitive, positive lead."""
    if f.is_zero:
        raise ZeroPolynomialError("square-free part of the zero polynomial")
    if f.degree == 0:
        return Polynomial([1])
    g = f.exact_div(gcd(f, f.derivative())).primitive()
    return -g if g.leading < 0 else g


def yun_decomposition(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Square-free decomposition: f = c * prod g_i^i with pairwise coprime,
    square-free, primitive, positive-lead g_i.  Trivial factors are omitted.
    """
    if f.is_zero:
        raise ZeroPolynomialError("square-free decomposition of the zero polynomial")
    f = f.primitive()
    if f.leading < 0:
        f = -f
    if f.degree == 0:
        return []
    fp = f.derivative()
    a = gcd(f, fp)
    b = f.exact_div(a)
    c = fp.exact_div(a)
    d = c - b.derivative()
    out: list[tuple[Polynomial, int]] = []
    i = 1
    while b.degree > 0:
        ai = gcd(b, d)
        if ai.degree > 0:
            out.append((ai, i))
        b = b.exact_div(ai)
        c = d.exact_div(ai)
        d = c - b.derivative()
        i += 1
    return out


# -- counting ---------------------------------------------------------------


def count_roots(f: Polynomial, lo: Fraction | float, hi: Fraction | float) -> int:
    """Number of distinct real roots of f in the half-open interval (lo, hi].

    lo may be -inf and hi may be +inf; signs there are read from leading
    coefficients and degrees.
    """
    if f.is_zero:
        raise ZeroPolynomialError("root count of the zero polynomial")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    if f.degree < 1:
        return 0
    lo = lo if lo == NEG_INF else Fraction(lo)
    hi = hi if hi == INF else Fraction(hi)
    return _count(_sturm_sequence(f.int_coeffs()), lo, hi)


# -- isolation ---------------------------------------------------------------


@dataclass(frozen=True)
class RootLocation:
    """One distinct real root: an exact rational point (lo == hi) or an open
    isolating interval with rational non-root endpoints."""

    lo: Fraction
    hi: Fraction
    multiplicity: int

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def point(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("root is located by an interval, not a point")
        return self.lo

    def __str__(self) -> str:
        where = str(self.lo) if self.is_exact else f"({self.lo}, {self.hi})"
        return f"{where}*{self.multiplicity}"


class _Isolator:
    """Isolation and rationality certification for one primitive square-free
    integer polynomial: its roots land in disjoint locations, and interval
    endpoints are never its roots."""

    def __init__(self, g: Polynomial):
        self.g = g
        self.seq = _sturm_sequence(g.int_coeffs())
        self.cs = self.seq[0]

    def sign_at(self, x: Fraction) -> int:
        return _int_sign_at(self.cs, x)

    def isolate(self) -> tuple[list[Fraction], list[tuple[Fraction, Fraction]]]:
        """All real roots: exact rational hits plus single-root open intervals."""
        points: list[Fraction] = []
        intervals: list[tuple[Fraction, Fraction]] = []
        if len(self.cs) <= 1:
            return points, intervals
        bound = cauchy_root_bound(self.g)
        v_lo = _variations(self.seq, -bound)
        v_hi = _variations(self.seq, bound)
        # (lo, hi, V(lo), V(hi), hi-is-a-root, depth); the variation difference
        # counts (lo, hi], so a root sitting exactly at hi must be discounted
        stack = [(-bound, bound, v_lo, v_hi, False, 0)]
        while stack:
            lo, hi, vlo, vhi, hi_root, depth = stack.pop()
            n = vlo - vhi - (1 if hi_root else 0)
            if n == 0:
                continue
            if n == 1:
                # splitting at an exact hit leaves that root as an endpoint;
                # move such endpoints off before handing the interval on
                clean = self._ensure_clean(lo, hi)
                if isinstance(clean, Fraction):
                    points.append(clean)
                else:
                    intervals.append(clean)
                continue
            mid = simplest_between(lo, hi) if depth % 2 == 0 else (lo + hi) / 2
            vm = _variations(self.seq, mid)
            hit = self.sign_at(mid) == 0
            if hit:
                points.append(mid)
            stack.append((lo, mid, vlo, vm, hit, depth + 1))
            stack.append((mid, hi, vm, vhi, hi_root, depth + 1))
        return points, intervals

    def _root_side(
        self, lo: Fraction, hi: Fraction, at: Fraction, s_at: int
    ) -> tuple[Fraction, Fraction]:
        """Side of the split point holding the unique root of (lo, hi).

        Endpoints may themselves be (other) roots; the split point may not.
        """
        slo = self.sign_at(lo)
        if slo != 0:
            return (lo, at) if slo * s_at < 0 else (at, hi)
        shi = self.sign_at(hi)
        if shi != 0:
            # simple interior root: the sign left of it is -shi
            return (lo, at) if s_at == shi else (at, hi)
        return (lo, at) if _count(self.seq, lo, at) >= 1 else (at, hi)

    def _ensure_clean(
        self, lo: Fraction, hi: Fraction
    ) -> Fraction | tuple[Fraction, Fraction]:
        """Shrink until neither endpoint is a root of g.

        Returns the root itself if the shrinking happens to land on it.
        """
        while self.sign_at(lo) == 0 or self.sign_at(hi) == 0:
            t = simplest_between(lo, hi)
            st = self.sign_at(t)
            if st == 0:
                return t
            lo, hi = self._root_side(lo, hi, t, st)
        return lo, hi

    def certify(
        self, lo: Fraction, hi: Fraction
    ) -> Fraction | tuple[Fraction, Fraction]:
        """Decide whether the unique root in (lo, hi) is rational.

        A rational root p/q in lowest terms has q dividing the leading
        coefficient, so once the minimal denominator present in the interval
        exceeds that coefficient the root is certified irrational.  Midpoint
        halving between candidate tests bounds the number of steps.
        """
        qmax = abs(self.cs[-1])
        clean = self._ensure_clean(lo, hi)
        if isinstance(clean, Fraction):
            return clean
        lo, hi = clean
        slo = self.sign_at(lo)
        while True:
            s = simplest_between(lo, hi)
            if s.denominator > qmax:
                return (lo, hi)
            sv = self.sign_at(s)
            if sv == 0:
                return s
            if slo * sv < 0:
                hi = s
            else:
                lo, slo = s, sv
            mid = (lo + hi) / 2
            sv = self.sign_at(mid)
            if sv == 0:
                return mid
            if slo * sv < 0:
                hi = mid
            else:
                lo, slo = mid, sv


def _multiplicity_at(
    factors: Sequence[tuple[list[int], int]], lo: Fraction, hi: Fraction
) -> int:
    """Multiplicity at one location (lo == hi for an exact point) given Yun
    factors as (integer coefficients, multiplicity) pairs; 0 if no factor has
    a root there.

    The location must come from isolating a square-free polynomial that every
    factor divides.  An exact point is a root of the factor that vanishes
    there.  An interval holds one root and its ends are roots of no factor,
    so the root belongs to the one factor whose sign differs at the two ends.
    """
    for cs, mult in factors:
        if lo == hi:
            if _int_sign_at(cs, lo) == 0:
                return mult
        elif _int_sign_at(cs, lo) != _int_sign_at(cs, hi):
            return mult
    return 0


def isolate_roots(f: Polynomial) -> list[RootLocation]:
    """Locate every distinct real root of f with its multiplicity, in order.

    One isolation of the square-free part of f (the product of its Yun
    factors) gives the locations; multiplicities are read from the Yun
    factors by sign.  Rational roots come back as exact points; irrational
    roots as disjoint open intervals whose rational endpoints are not roots
    of f.
    """
    factors = yun_decomposition(f)
    iso = _Isolator(math.prod((g for g, _ in factors), start=Polynomial([1])))
    points, intervals = iso.isolate()
    spans = [(p, p) for p in points]
    for lo, hi in intervals:
        located = iso.certify(lo, hi)
        spans.append((located, located) if isinstance(located, Fraction) else located)
    int_factors = [(g.int_coeffs(), mult) for g, mult in factors]
    return [
        RootLocation(lo, hi, _multiplicity_at(int_factors, lo, hi))
        for lo, hi in sorted(spans)
    ]


# -- classification -----------------------------------------------------------


class Rootedness(Enum):
    REAL_SIMPLE = "real_simple"
    REAL_WITH_MULTIPLICITY = "real_with_multiplicity"
    NOT_REAL_ROOTED = "not_real_rooted"


def is_real_rooted(f: Polynomial) -> Rootedness:
    """Classify whether all complex zeros of f are real, and whether simple.

    Nonzero constants are vacuously real- and simple-rooted.
    """
    if f.is_zero:
        raise ZeroPolynomialError("rootedness of the zero polynomial")
    return _rootedness(f.int_coeffs())


def _rootedness(cs: list[int]) -> Rootedness:
    """is_real_rooted of the nonzero polynomial with integer coefficients cs."""
    if len(cs) == 1:
        return Rootedness.REAL_SIMPLE
    # f has deg f - deg gcd(f, f') distinct complex roots
    seq = _sturm_sequence(cs)
    if _count(seq, NEG_INF, INF) < len(cs) - len(seq[-1]):
        return Rootedness.NOT_REAL_ROOTED
    if len(seq[-1]) > 1:
        return Rootedness.REAL_WITH_MULTIPLICITY
    return Rootedness.REAL_SIMPLE


def roots_in_interval(
    f: Polynomial, lo: Fraction, hi: Fraction, closed: bool = True
) -> bool:
    """True iff f is real-rooted and every root lies in [lo, hi] ((lo, hi)
    when closed is False)."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    if f.is_zero:
        raise ZeroPolynomialError("rootedness of the zero polynomial")
    if f.degree == 0:
        return True
    # real-rooted with every root inside iff all deg f - deg gcd(f, f')
    # distinct roots are counted inside
    seq = _sturm_sequence(f.int_coeffs())
    inside = _count(seq, lo, hi)
    if closed:
        inside += _int_sign_at(seq[0], lo) == 0
    else:
        inside -= _int_sign_at(seq[0], hi) == 0
    return inside == len(seq[0]) - len(seq[-1])


def log_concavity_check(f: Polynomial) -> int | None:
    """First interior index where strict log-concavity fails, else None.

    Checks a_i^2 > a_{i-1} * a_{i+1} for every i strictly between the lowest
    nonzero order and the degree.
    """
    if f.is_zero:
        raise ZeroPolynomialError("log-concavity of the zero polynomial")
    low = f.trailing_order
    high = f.degree
    for i in range(int(low) + 1, int(high)):
        if f.coefficient(i) ** 2 <= f.coefficient(i - 1) * f.coefficient(i + 1):
            return i
    return None
