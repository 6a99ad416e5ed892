"""Exact polynomial arithmetic, parsing, and ring properties."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from realroots import (
    ONE,
    X,
    ZERO,
    Polynomial,
    ZeroPolynomialError,
    constant,
    format_polynomial_json,
    format_polynomial_text,
    from_roots,
    gcd,
    parse_polynomial_json,
    parse_polynomial_text,
)
from realroots.polynomial import NEG_INF

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
polys = st.lists(rationals, min_size=0, max_size=8).map(Polynomial)
nonzero_polys = polys.filter(lambda f: not f.is_zero)


def P(*coeffs) -> Polynomial:
    return Polynomial([Fraction(c) for c in coeffs])


class TestBasics:
    def test_add(self):
        assert P(1, 1) + P(0, 1) == P(1, 2)

    def test_mul(self):
        assert P(0, 1) * P(1, 1) == P(0, 1, 1)

    def test_power(self):
        assert P(1, 1) ** 3 == P(1, 3, 3, 1)
        assert P(2, -1) ** 0 == ONE and ZERO ** 0 == ONE
        with pytest.raises(ValueError):
            P(1, 1) ** -1

    def test_scale(self):
        assert P(1, 2) * Fraction(1, 2) == P(Fraction(1, 2), 1)

    def test_zero_normalization(self):
        assert Polynomial([0, 0]).is_zero
        assert Polynomial([0, 0]) == ZERO
        assert Polynomial([1, 0]).degree == 0

    def test_degree_of_zero_is_minus_infinity(self):
        assert ZERO.degree == NEG_INF

    def test_leading_of_zero_raises(self):
        with pytest.raises(ZeroPolynomialError):
            ZERO.leading

    def test_standard_means_positive_lead(self):
        assert P(0, 1).is_standard
        assert not P(0, -1).is_standard
        assert not ZERO.is_standard

    def test_trailing_order(self):
        assert P(0, 0, 3, 1).trailing_order == 2
        assert ZERO.trailing_order == NEG_INF

    def test_from_roots(self):
        assert from_roots([-1, 0]) == P(0, 1, 1)
        assert from_roots([], lead=5) == constant(5)


class TestCalculus:
    def test_derivative(self):
        assert P(0, 0, 1).derivative() == P(0, 2)

    def test_derivative_past_degree(self):
        assert P(0, 0, 1).derivative(3) == ZERO

    def test_second_derivative(self):
        assert P(1, 2, 1).derivative(2) == P(2)

    def test_translate_square(self):
        assert P(0, 0, 1).translate(1) == P(1, 2, 1)

    def test_translate_zero_is_identity(self):
        f = P(3, -2, 7)
        assert f.translate(0) == f

    def test_translate_negative(self):
        assert P(-1, 0, 1).translate(-1) == P(0, -2, 1)

    def test_evaluate(self):
        assert P(0, 1, 1)(2) == 6
        assert ZERO(Fraction(17, 3)) == 0

    def test_evaluate_at_transform_root(self):
        assert P(0, 1, 2)(Fraction(-1, 2)) == 0



class TestDivision:
    def test_divmod_identity(self):
        f, g = P(1, 0, 0, 2), P(-1, 1)
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree

    def test_exact_div(self):
        f = P(0, 1, 1)
        assert f.exact_div(P(1, 1)) == P(0, 1)
        with pytest.raises(ValueError):
            f.exact_div(P(1, 0, 0, 1))

    def test_gcd_of_shared_factor(self):
        f = from_roots([1, 2])
        g = from_roots([2, 5])
        assert gcd(f, g) == from_roots([2])

    def test_gcd_is_monic_or_constant(self):
        assert gcd(P(0, 4), P(0, 0, 6)) == P(0, 1)
        assert gcd(P(3), P(0, 1)).degree == 0


class TestHygiene:
    def test_content_primitive(self):
        f = P(Fraction(2, 3), Fraction(4, 3))
        assert f.content() == Fraction(2, 3)
        assert f.primitive() == P(1, 2)
        assert f.primitive() * f.content() == f

    def test_int_coeffs(self):
        assert P(Fraction(1, 2), Fraction(3, 2)).int_coeffs() == [1, 3]

    def test_monic(self):
        assert P(2, 4).monic() == P(Fraction(1, 2), 1)


def _old_int_coeffs(f: Polynomial) -> list[int]:
    """int_coeffs by a Fraction multiply with 1 / content()."""
    if f.is_zero:
        return []
    return [c.numerator for c in (f * (1 / f.content())).coeffs]


def _normalisation_inputs(seed: int) -> list[Polynomial]:
    """Zero, constants, mixed signs and negative leads, shared factors, and
    numerators and denominators of 200+ bits."""
    rng = random.Random(seed)

    def rational(bits: int) -> Fraction:
        return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))

    out = [ZERO, P(7), P(-3), P(Fraction(-4, 9)), P(6, -4, 8), P(0, 0, -10, 15)]
    for _ in range(30):
        bits = rng.choice([4, 60, 210, 260])
        f = Polynomial(rational(bits) for _ in range(rng.randint(1, 9)))
        k = Fraction(rng.randint(1, 2**bits), rng.randint(1, 2**bits))
        out += [f, -f, f * k, f * -k, f * 2**bits * 3]
    return out


class TestIntCoeffs:
    """int_coeffs and primitive against the Fraction normalisation, and
    against sympy's denominator clearing and content."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_fraction_normalisation(self, seed):
        for f in _normalisation_inputs(seed):
            cs = f.int_coeffs()
            assert cs == _old_int_coeffs(f), f
            assert all(type(c) is int for c in cs)
            assert f.primitive() == Polynomial(cs)
            assert f.primitive() * f.content() == f

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_sympy_primitive_part(self, seed):
        x = sympy.Symbol("x")
        for f in _normalisation_inputs(seed):
            if f.is_zero:
                assert f.int_coeffs() == [] and f.content() == 0
                continue
            sp = sympy.Poly([sympy.Rational(c) for c in reversed(f.coeffs)], x)
            _, cleared = sp.clear_denoms(convert=True)
            _, prim = cleared.primitive()
            assert f.int_coeffs() == [int(c) for c in reversed(prim.all_coeffs())]

    def test_shared_factor_is_divided_out(self):
        f = P(Fraction(4, 3), Fraction(-8, 9), 2**300)
        assert f.int_coeffs() == [3, -2, 9 * 2**298]
        assert P(Fraction(-6, 7)).int_coeffs() == [-1]


class TestParsing:
    def test_text_example(self):
        assert parse_polynomial_text("0 1 1") == P(0, 1, 1)

    def test_text_rationals(self):
        assert parse_polynomial_text("1/2 -3") == P(Fraction(1, 2), -3)

    def test_json_roundtrip_example(self):
        f = P(0, 1, 1)
        assert parse_polynomial_json(format_polynomial_json(f)) == f

    def test_malformed_text(self):
        with pytest.raises(ValueError):
            parse_polynomial_text("1 two 3")

    def test_malformed_json(self):
        with pytest.raises(ValueError):
            parse_polynomial_json('{"not": "an array"}')


@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


@given(polys, nonzero_polys)
def test_division_algorithm(f, g):
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


@given(polys, polys)
@example(P(2, 3, 1), ZERO)
@example(ZERO, P(-4, 0, 2))
@example(ZERO, ZERO)
@example(P(3), P(0, 1))
@example(P(-1, 0, 1), P(5))
def test_gcd_divides_both(f, g):
    d = gcd(f, g)
    x = sympy.Symbol("x")
    oracle = sympy.gcd(
        sympy.Poly([sympy.Rational(c) for c in reversed(f.coeffs)] or [0], x, domain="QQ"),
        sympy.Poly([sympy.Rational(c) for c in reversed(g.coeffs)] or [0], x, domain="QQ"),
    )
    expected = Polynomial([Fraction(str(c)) for c in reversed(oracle.all_coeffs())])
    expected = expected.primitive()
    if expected and expected.leading < 0:
        expected = -expected
    assert d == expected
    if f.is_zero and g.is_zero:
        assert d.is_zero
    else:
        assert d.is_standard and d.content() == 1
        assert (f % d).is_zero and (g % d).is_zero


@given(polys)
def test_text_roundtrip(f):
    assert parse_polynomial_text(format_polynomial_text(f)) == f


@given(polys)
def test_json_roundtrip(f):
    assert parse_polynomial_json(format_polynomial_json(f)) == f


@given(polys, rationals, rationals)
def test_translate_composes_with_evaluate(f, shift, x):
    assert f.translate(shift)(x) == f(x + shift)


@given(polys, polys)
def test_derivative_is_a_derivation(f, g):
    lhs = (f * g).derivative()
    assert lhs == f.derivative() * g + f * g.derivative()


def test_one_and_x_constants():
    assert ONE == P(1)
    assert X == P(0, 1)
    assert X * X + ONE == P(1, 0, 1)
