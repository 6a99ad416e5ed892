"""Root counting, isolation, and classification, cross-checked against an
independent computer-algebra oracle."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from realroots import (
    Polynomial,
    RootLocation,
    Rootedness,
    ZeroPolynomialError,
    count_roots,
    from_roots,
    is_real_rooted,
    isolate_roots,
    log_concavity_check,
    roots_in_interval,
    squarefree_part,
    yun_decomposition,
)
from realroots.polynomial import _remainder_sequence
from realroots.roots import (
    INF,
    NEG_INF,
    _int_sign_at,
    _rootedness,
    _sturm_sequence,
    _variations,
    cauchy_root_bound,
    simplest_between,
)

_X = sympy.Symbol("x")


def P(*coeffs) -> Polynomial:
    return Polynomial([Fraction(c) for c in coeffs])


def to_sympy(f: Polynomial):
    return sympy.Poly(list(reversed([sympy.Rational(c) for c in f.coeffs])), _X)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)
small_polys = st.lists(rationals, min_size=1, max_size=7).map(Polynomial).filter(
    lambda f: not f.is_zero
)


class TestCountRoots:
    def test_sqrt_two_in_unit_window(self):
        assert count_roots(P(-2, 0, 1), 0, 2) == 1

    def test_no_real_roots(self):
        assert count_roots(P(1, 0, 1), NEG_INF, INF) == 0

    def test_closed_endpoints_handled_by_caller(self):
        f = P(0, 1, 1)
        assert count_roots(f, -1, 0) == 1  # half-open (lo, hi] sees only 0
        assert f(-1) == 0
        assert roots_in_interval(f, -1, 0, closed=True)

    def test_multiplicities_do_not_double_count(self):
        assert count_roots(P(0, 0, 1) * P(-1, 1), NEG_INF, INF) == 2

    def test_infinite_endpoints(self):
        f = from_roots([-100, 100])
        assert count_roots(f, NEG_INF, INF) == 2
        assert count_roots(f, 0, INF) == 1

    @settings(max_examples=60, deadline=None)
    @given(small_polys, rationals, rationals)
    def test_against_oracle(self, f, a, b):
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        ours = count_roots(f, lo, hi)
        roots = {r for r in sympy.Poly(to_sympy(f)).real_roots()}
        theirs = sum(1 for r in roots if r > lo and r <= hi)
        assert ours == theirs


class TestIsolation:
    def test_rational_roots_found_exactly(self):
        locs = isolate_roots(P(0, 1, 2))
        assert [(loc.point, loc.multiplicity) for loc in locs] == [
            (Fraction(-1, 2), 1),
            (Fraction(0), 1),
        ]

    def test_double_root(self):
        locs = isolate_roots(P(0, 0, 1))
        assert [(loc.point, loc.multiplicity) for loc in locs] == [(0, 2)]

    def test_irrational_roots_get_intervals(self):
        locs = isolate_roots(P(-2, 0, 1))
        assert len(locs) == 2
        for loc, sign in zip(locs, (-1, 1)):
            assert not loc.is_exact
            assert loc.lo < sign * Fraction(577, 408) < loc.hi  # near ±√2

    def test_intervals_are_disjoint_and_ordered(self):
        f = from_roots([0, Fraction(1, 3), 1]) * P(-2, 0, 1)
        locs = isolate_roots(f)
        assert len(locs) == 5
        for left, right in zip(locs, locs[1:]):
            assert left.hi < right.lo or (
                left.hi == right.lo and (left.is_exact or right.is_exact)
            )

    def test_endpoints_are_never_roots(self):
        for f in (
            P(-2, 0, 1) * from_roots([Fraction(3, 2)]),
            # a double sqrt 2 between 7/5 and the simple root sqrt 2.0001
            P(-2, 0, 1) ** 2 * P(-20001, 0, 10000) * from_roots([Fraction(7, 5)]),
        ):
            for loc in isolate_roots(f):
                if not loc.is_exact:
                    assert f(loc.lo) != 0 and f(loc.hi) != 0

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            isolate_roots(Polynomial([]))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=5), st.integers(0, 2))
    def test_multiplicity_sum_and_containment(self, roots, extra_pairs):
        f = from_roots(roots)
        for _ in range(extra_pairs):
            f = f * P(1, 0, 1)  # add non-real pairs; must not disturb isolation
        locs = isolate_roots(f)
        assert sum(loc.multiplicity for loc in locs) == len(roots)
        ours = {loc.point for loc in locs if loc.is_exact}
        assert ours == set(map(Fraction, roots))


def _oracle_roots(f: Polynomial) -> list[list]:
    """Distinct real roots of f with multiplicities, in order, from sympy,
    which repeats a multiple root as the same object."""
    distinct: list[list] = []
    for r in to_sympy(f).real_roots():
        if distinct and distinct[-1][0] == r:
            distinct[-1][1] += 1
        else:
            distinct.append([r, 1])
    return distinct


def _assert_locations_match(f: Polynomial) -> None:
    locs = isolate_roots(f)
    oracle = _oracle_roots(f)
    assert len(locs) == len(oracle)
    for loc, (r, mult) in zip(locs, oracle):
        assert loc.multiplicity == mult
        if loc.is_exact:
            assert sympy.Rational(loc.point) == r
        else:
            assert not r.is_rational
            assert sympy.Rational(loc.lo) < r < sympy.Rational(loc.hi)


# Factors with irrational or complex roots: 10000x^2 - 20001 has roots next
# to +-sqrt 2, and (3x - 4)(x + 3)(3x^2 - x - 5) shares 4/3 and -3 with the
# rational linear factors and has a root next to sqrt 2.
_FACTOR_POOL = [
    P(-2, 0, 1),
    P(-3, 0, 1),
    P(-20001, 0, 10000),
    P(1, 0, 1),
    P(-1, -1, 1),
    P(-5, 0, 0, 1),
    P(60, -13, -56, 12, 9),
]


def _multi_factor_product(seed: int) -> Polynomial:
    """Product of 1-4 factors, each raised to a power of 1-3."""
    rng = random.Random(seed)
    f = P(1)
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.35:
            factor = from_roots([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))])
        else:
            factor = rng.choice(_FACTOR_POOL)
        f = f * factor ** rng.randint(1, 3)
    return f


class TestIsolationOracle:
    @settings(max_examples=30, deadline=None)
    @given(small_polys)
    def test_locations_match_computer_algebra(self, f):
        _assert_locations_match(f)

    @pytest.mark.parametrize("seed", range(40))
    def test_multi_factor_products(self, seed):
        _assert_locations_match(_multi_factor_product(seed))


class TestClassification:
    def test_examples(self):
        assert is_real_rooted(P(1, 2, 1)) is Rootedness.REAL_WITH_MULTIPLICITY
        assert is_real_rooted(P(1, 1, 1)) is Rootedness.NOT_REAL_ROOTED
        assert is_real_rooted(P(0, 1, 1)) is Rootedness.REAL_SIMPLE

    def test_constants_vacuously_simple(self):
        assert is_real_rooted(P(5)) is Rootedness.REAL_SIMPLE

    def test_interval_membership(self):
        assert roots_in_interval(P(0, 1, 2), -1, 0)
        assert not roots_in_interval(P(-1, 1), -1, 0)
        assert roots_in_interval(P(0, 1, 1), -1, 0, closed=True)
        assert not roots_in_interval(P(0, 1, 1), -1, 0, closed=False)

    def test_non_real_rooted_never_inside(self):
        assert not roots_in_interval(P(1, 0, 1) * P(0, 1), -1, 0)


# Products of rational linear factors with repeats, times optionally x^2 - 2
# (irrational roots) and a positive-definite quadratic (a complex pair).
_root_pool = st.sampled_from([Fraction(k, d) for k in range(-4, 5) for d in (1, 2, 3)])
factored_polys = st.tuples(
    st.lists(st.tuples(_root_pool, st.integers(1, 3)), min_size=1, max_size=4),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1, -2, Fraction(3, 5)]),
)


def _build(spec):
    linear, irrational, complex_pair, lead = spec
    f = from_roots([r for r, mult in linear for _ in range(mult)], lead)
    if irrational:
        f = f * P(-2, 0, 1)
    if complex_pair:
        f = f * P(3, 1, 1)
    return f, sorted({r for r, _ in linear})


class TestDecisionOracle:
    """is_real_rooted, roots_in_interval and count_roots against sympy, with
    endpoints drawn from the roots themselves so that multiple roots sit on
    the interval ends."""

    @settings(max_examples=80, deadline=None)
    @given(factored_polys)
    def test_is_real_rooted(self, spec):
        f, _ = _build(spec)
        real = to_sympy(f).real_roots()
        if len(real) < f.degree:
            expected = Rootedness.NOT_REAL_ROOTED
        elif len(set(real)) < f.degree:
            expected = Rootedness.REAL_WITH_MULTIPLICITY
        else:
            expected = Rootedness.REAL_SIMPLE
        assert is_real_rooted(f) is expected

    @settings(max_examples=80, deadline=None)
    @given(factored_polys, st.data())
    def test_roots_in_interval_and_count(self, spec, data):
        f, roots = _build(spec)
        ends = roots + [roots[0] - 1, roots[-1] + Fraction(1, 2)]
        lo = data.draw(st.sampled_from(ends))
        hi = data.draw(st.sampled_from([e for e in ends if e > lo] or [lo + 1]))
        real = to_sympy(f).real_roots()
        slo, shi = sympy.Rational(lo), sympy.Rational(hi)
        real_rooted = len(real) == f.degree
        for closed in (True, False):
            if closed:
                inside = all(slo <= r <= shi for r in real)
            else:
                inside = all(slo < r < shi for r in real)
            assert roots_in_interval(f, lo, hi, closed) == (real_rooted and inside)
        assert count_roots(f, lo, hi) == len({r for r in real if slo < r <= shi})
        assert count_roots(f, NEG_INF, hi) == len({r for r in real if r <= shi})
        assert count_roots(f, lo, INF) == len({r for r in real if r > slo})


def _old_int(f: Polynomial) -> list[int]:
    """Primitive integer coefficients by a Fraction multiply with 1 / content."""
    return [c.numerator for c in (f * (1 / f.content())).coeffs]


def _old_sturm(f: Polynomial) -> list[list[int]]:
    return _remainder_sequence(_old_int(f), _old_int(f.derivative()))


def _old_count(seq: list[list[int]], lo, hi) -> int:
    """Sturm count with the division by the gcd done by Polynomial.exact_div."""
    last = seq[-1]
    if len(last) > 1 and 0 in (_int_sign_at(last, lo), _int_sign_at(last, hi)):
        d = Polynomial(last)
        seq = [_old_int(Polynomial(p).exact_div(d)) for p in seq]
    return _variations(seq, lo) - _variations(seq, hi)


def _old_rootedness(f: Polynomial) -> Rootedness:
    if f.degree == 0:
        return Rootedness.REAL_SIMPLE
    seq = _old_sturm(f)
    if _old_count(seq, NEG_INF, INF) < f.degree - (len(seq[-1]) - 1):
        return Rootedness.NOT_REAL_ROOTED
    if len(seq[-1]) > 1:
        return Rootedness.REAL_WITH_MULTIPLICITY
    return Rootedness.REAL_SIMPLE


def _old_in_interval(f: Polynomial, lo: Fraction, hi: Fraction, closed: bool) -> bool:
    seq = _old_sturm(f)
    inside = _old_count(seq, lo, hi)
    if closed:
        inside += _int_sign_at(seq[0], lo) == 0
    else:
        inside -= _int_sign_at(seq[0], hi) == 0
    return inside == f.degree - (len(seq[-1]) - 1)


_FACTORS = [
    P(1, 1), P(0, 1), P(1, 2), P(-3, 2), P(-2, 0, 1), P(-3, 0, 1), P(1, 0, 1), P(3, 1, 1)
]


def _random_factor_product(rng: random.Random) -> Polynomial:
    """Seeded product of rational, irrational ((x^2-2), (x^2-3)) and
    non-real ((x^2+1), (x^2+x+3)) factors, some repeated, with a lead of
    either sign."""
    f = P(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)))
    for _ in range(rng.randint(1, 5)):
        f = f * rng.choice(_FACTORS) ** rng.randint(1, 3)
    return f


class TestIntegerDecisions:
    """The integer decision path against the Polynomial path it replaced
    (test-local oracles above) and against sympy."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rootedness_of_gcd_lists(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            shared = _random_factor_product(rng)
            f = shared * _random_factor_product(rng)
            g = shared * _random_factor_product(rng)
            # the gcd list as a remainder sequence leaves it: primitive,
            # with a lead of either sign
            d = _remainder_sequence(f.int_coeffs(), g.int_coeffs())[-1]
            for cs in (d, [-c for c in d], f.int_coeffs(), [-c for c in _old_int(g)]):
                got = _rootedness(cs)
                assert got is _old_rootedness(Polynomial(cs)), cs
                sp = sympy.Poly(list(reversed(cs)), _X)
                if len(sp.real_roots()) < sp.degree():
                    expected = Rootedness.NOT_REAL_ROOTED
                elif sympy.degree(sympy.gcd(sp, sp.diff(_X)), _X) > 0:
                    expected = Rootedness.REAL_WITH_MULTIPLICITY
                else:
                    expected = Rootedness.REAL_SIMPLE
                assert got is expected, cs

    def test_multiple_root_endpoints_example(self):
        # (x+1)^2 x^3 (2x+1): both ends of [-1, 0] are multiple roots
        f = P(1, 1) ** 2 * P(0, 1) ** 3 * P(1, 2)
        assert roots_in_interval(f, -1, 0)
        assert not roots_in_interval(f, -1, 0, closed=False)
        assert not roots_in_interval(f, Fraction(-1, 2), 0)
        assert count_roots(f, -1, 0) == 2
        assert count_roots(f, -2, -1) == 1
        assert count_roots(f, Fraction(-1, 2), 0) == 1
        assert count_roots(f, Fraction(-1, 2), 1) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_interval_decisions_at_multiple_roots(self, seed):
        rng = random.Random(100 + seed)
        fs = [P(1, 1) ** 2 * P(0, 1) ** 3 * P(1, 2)] + [
            _random_factor_product(rng) for _ in range(12)
        ]
        ends = [Fraction(k, 2) for k in range(-4, 4)]
        for f in fs:
            seq = _old_sturm(f)
            assert _sturm_sequence(f.int_coeffs()) == seq
            for lo in ends:
                for hi in ends:
                    if lo >= hi:
                        continue
                    for closed in (True, False):
                        assert roots_in_interval(f, lo, hi, closed) == _old_in_interval(
                            f, lo, hi, closed
                        ), (f, lo, hi, closed)
                    assert count_roots(f, lo, hi) == _old_count(seq, lo, hi), (f, lo, hi)


class TestSquarefree:
    def test_squarefree_part_drops_multiplicity(self):
        f = from_roots([1, 1, 2])
        assert squarefree_part(f).monic() == from_roots([1, 2])

    def test_yun_reconstructs(self):
        f = from_roots([0, 0, 0, 1, 1, -2]) * 3
        rebuilt = Polynomial([3])
        for g, mult in yun_decomposition(f):
            rebuilt = rebuilt * g**mult
        assert rebuilt == f

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=6))
    def test_yun_multiplicities(self, roots):
        f = from_roots(roots)
        expected = {Fraction(r): roots.count(r) for r in set(roots)}
        got: dict[Fraction, int] = {}
        for g, mult in yun_decomposition(f):
            for loc in isolate_roots(g):
                got[loc.point] = mult
        assert got == expected


class TestLogConcavity:
    def test_strict_example(self):
        assert log_concavity_check(P(1, 4, 2)) is None

    def test_violation_index(self):
        assert log_concavity_check(P(1, 1, 1)) == 1

    def test_empty_range_vacuous(self):
        assert log_concavity_check(P(0, 1, 2)) is None


class TestHelpers:
    def test_cauchy_bound_contains_roots(self):
        f = from_roots([-7, Fraction(9, 2)])
        bound = cauchy_root_bound(f)
        assert bound > 7 and bound > Fraction(9, 2)

    def test_simplest_between_prefers_small_denominators(self):
        # open-interval semantics: the endpoints themselves never qualify
        assert simplest_between(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)
        assert simplest_between(Fraction(-3, 2), Fraction(-4, 3)) == Fraction(-7, 5)
        assert simplest_between(Fraction(2, 7), Fraction(3, 7)) == Fraction(1, 3)
        assert simplest_between(Fraction(-1, 2), Fraction(3)) == 0

    def test_random_simplest_between_is_minimal(self):
        rng = random.Random(5)
        for _ in range(200):
            a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            b = a + Fraction(rng.randint(1, 30), rng.randint(1, 12))
            got = simplest_between(a, b)
            assert a < got < b
            for den in range(1, got.denominator):
                strictly_inside = [
                    num
                    for num in range(int(a * den) - 1, int(b * den) + 2)
                    if a < Fraction(num, den) < b
                ]
                assert not strictly_inside, (a, b, got, den)
