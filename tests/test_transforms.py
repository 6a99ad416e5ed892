"""Derivative-based polynomial products and the membership checker."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realroots import (
    Polynomial,
    PreconditionFailedError,
    Rootedness,
    alt_diamond,
    aplus_check_diamond,
    d_phi_diamond,
    diamond,
    from_roots,
    h_xi,
    hermite_poulain,
    is_real_rooted,
    laguerre_transform,
    lphi_diamond,
    schur_product,
)
from realroots.generators import random_interval_rooted, random_real_rooted
from realroots.polynomial import NEG_INF, ONE, ZERO
from realroots.posets import e_inverse, e_operator
from realroots.transforms import _derivative_images


def P(*coeffs) -> Polynomial:
    return Polynomial([Fraction(c) for c in coeffs])


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)
polys = st.lists(rationals, min_size=0, max_size=6).map(Polynomial)


class TestSchur:
    def test_squared_binomial(self):
        f = P(1, 2, 1)
        assert schur_product(f, f) == P(1, 4, 2)

    def test_constant_absorbs(self):
        assert schur_product(P(3, 1, 4), ONE) == P(3)

    def test_linear_fixed_point(self):
        assert schur_product(P(1, 1), P(1, 1)) == P(1, 1)

    @given(polys, polys)
    def test_bilinear_and_symmetric(self, f, g):
        assert schur_product(f, g) == schur_product(g, f)
        assert schur_product(f + g, g) == schur_product(f, g) + schur_product(g, g)


class TestDiamond:
    def test_x_with_itself(self):
        assert diamond(P(0, 1), P(0, 1)) == P(0, 1, 2)

    def test_shifted_linear(self):
        assert diamond(P(1, 1), P(0, 1)) == P(0, 2, 2)

    def test_one_is_identity(self):
        f = P(3, -1, 2)
        assert diamond(f, ONE) == f
        assert diamond(ONE, f) == f

    def test_zero_annihilates(self):
        assert diamond(ZERO, P(1, 2)) == ZERO

    @given(polys, polys)
    def test_symmetric(self, f, g):
        assert diamond(f, g) == diamond(g, f)

    @given(polys, polys, polys)
    def test_bilinear(self, f, g, h):
        assert diamond(f + g, h) == diamond(f, h) + diamond(g, h)

    def test_degree_adds(self):
        f, g = from_roots([1, 2]), from_roots([-3])
        assert diamond(f, g).degree == 3

    def test_matches_derivative_sum(self):
        rng = random.Random(20)

        def arbitrary(deg: int) -> Polynomial:
            return Polynomial(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg + 1)
            )

        pairs = [(ZERO, ZERO), (ZERO, arbitrary(7)), (P(5), P(-2)), (P(0, 0, 1), P(1, 0, 1))]
        for _ in range(40):
            f = arbitrary(rng.randint(0, 20))
            g = random_real_rooted(rng, 20, standard=False, min_deg=0)
            pairs += [(f, g), (g, arbitrary(rng.randint(0, 4)))]
        wide = _wide_denominator_inputs(random.Random(21))
        pairs += list(zip(wide, reversed(wide))) + [(f, wide[-1]) for f in wide[:6]]
        for f, g in pairs:
            assert diamond(f, g) == _derivative_sum(f, g)

    def test_basis_change_round_trip_wide_denominators(self):
        wide = _wide_denominator_inputs(random.Random(22))
        for f in wide:
            assert e_operator(e_inverse(f)) == f
            assert e_inverse(e_operator(f)) == f
        for f, g in zip(wide, wide[1:]):
            assert diamond(f, g) == e_operator(e_inverse(f) * e_inverse(g))


def _wide_denominator_inputs(rng: random.Random) -> list[Polynomial]:
    """Zero, a constant, and polynomials of degree 1-8 whose coefficients have
    denominators of about 100 bits, one of them real-rooted."""

    def rational() -> Fraction:
        return Fraction(rng.randint(-(2**40), 2**40), rng.randint(2**99, 2**100))

    out = [ZERO, P(rational())]
    for deg in range(1, 9):
        out.append(Polynomial(rational() for _ in range(deg + 1)))
    out.append(from_roots([rational() for _ in range(4)], rational()))
    return out


def _derivative_sum(f: Polynomial, g: Polynomial) -> Polynomial:
    """diamond by its defining sum, term by term."""
    out = ZERO
    fn, gn, power, n = f, g, ONE, 0
    while not fn.is_zero and not gn.is_zero:
        out = out + fn * gn * power * Fraction(1, factorial(n) ** 2)
        fn, gn = fn.derivative(), gn.derivative()
        power = power * P(0, 1, 1)
        n += 1
    return out


class TestAltDiamond:
    def test_linear_matches_diamond(self):
        assert alt_diamond(P(0, 1), P(0, 1)) == P(0, 1, 2)

    def test_square_with_square(self):
        assert alt_diamond(P(0, 0, 1), P(0, 0, 1)) == P(0, 0, 2, 8, 7)

    def test_one_is_identity(self):
        f = P(-2, 5, 1)
        assert alt_diamond(f, ONE) == f


class TestHermitePoulain:
    def test_one_plus_x(self):
        assert hermite_poulain(P(1, 1), P(0, 0, 1)) == P(0, 2, 1)

    def test_identity_operator(self):
        g = P(4, -1, 7)
        assert hermite_poulain(ONE, g) == g

    def test_pure_differentiation(self):
        assert hermite_poulain(P(0, 1), P(0, 0, 1)) == P(0, 2)

    @given(polys, polys)
    def test_linear_in_both_arguments(self, f, g):
        h = P(1, 1)
        assert hermite_poulain(f + h, g) == hermite_poulain(f, g) + hermite_poulain(h, g)
        assert hermite_poulain(f, g + g) == hermite_poulain(f, g) * 2


class TestLaguerre:
    def test_halves_quadratic_coefficient(self):
        assert laguerre_transform(P(1, 2, 1)) == P(1, 2, Fraction(1, 2))
        assert is_real_rooted(P(1, 2, Fraction(1, 2))) is Rootedness.REAL_SIMPLE

    def test_constants_unchanged(self):
        assert laguerre_transform(P(9)) == P(9)

    def test_cubic(self):
        assert laguerre_transform(P(0, 0, 0, 1)) == P(0, 0, 0, Fraction(1, 6))


class TestHXi:
    def test_linear_at_minus_half(self):
        got = h_xi(P(1, 1), Fraction(-1, 2))
        assert got == P(Fraction(1, 2), Fraction(-1, 4))

    def test_degenerate_at_zero(self):
        h = P(2, -3, 5)
        assert h_xi(h, Fraction(0)) == P(2)

    def test_degenerate_at_minus_one(self):
        h = P(2, -3, 5)
        assert h_xi(h, Fraction(-1)) == P(h(-1))


class TestLphi:
    def test_trivial_multiplier(self):
        assert lphi_diamond(P(0, 1), ONE, Fraction(3)) == P(3, 1)

    def test_common_vanishing_point(self):
        assert lphi_diamond(P(0, 1), P(0, 1), Fraction(0)) == ZERO

    def test_composite_identity_random(self):
        rng = random.Random(2)
        for _ in range(25):
            f = random_real_rooted(rng, 5, standard=False)
            h = random_interval_rooted(rng, 4)
            xi = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
            lhs = lphi_diamond(f, h, xi)
            rhs = hermite_poulain(h_xi(h, xi), f.translate(xi))
            assert lhs == rhs

    def test_matches_diamond_of_each_derivative(self):
        # the definition, one diamond per derivative, on zero, constant,
        # real-rooted and arbitrary rational inputs
        rng = random.Random(4)
        inputs = [ZERO, P(3)] + [
            Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d + 1)])
            for d in range(1, 9)
        ] + [random_real_rooted(rng, 6, standard=False) for _ in range(4)]
        for f in inputs:
            for h in inputs[::3]:
                xi = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                images = [diamond(f.derivative(n), h) for n in range(len(f.coeffs))]
                assert _derivative_images(f, h) == images, (f, h)
                expected = Polynomial(
                    image(xi) / factorial(n) for n, image in enumerate(images)
                )
                assert lphi_diamond(f, h, xi) == expected, (f, h, xi)

    def test_wide_denominators(self):
        # each image against the defining sum, and each slice against the
        # operator identity, on inputs with 100-bit denominators
        rng = random.Random(23)
        wide = _wide_denominator_inputs(rng)
        for f, h in zip(wide, wide[3:] + wide[:3]):
            xi = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
            images = [_derivative_sum(f.derivative(n), h) for n in range(len(f.coeffs))]
            assert _derivative_images(f, h) == images, (f, h)
            assert lphi_diamond(f, h, xi) == hermite_poulain(h_xi(h, xi), f.translate(xi))

    def test_commutes_with_derivative(self):
        rng = random.Random(3)
        for _ in range(25):
            f = random_real_rooted(rng, 5, standard=False)
            h = random_interval_rooted(rng, 4)
            xi = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
            assert lphi_diamond(f, h, xi).derivative() == lphi_diamond(
                f.derivative(), h, xi
            )


class TestDegreeBound:
    def test_zero_input(self):
        assert d_phi_diamond(ZERO, P(1, 1)) == NEG_INF

    def test_square(self):
        assert d_phi_diamond(P(0, 0, 1), P(1, 1)) == 2

    def test_constant(self):
        assert d_phi_diamond(P(5), P(0, 1)) == 0

    def test_matches_scan_of_derivative_images(self):
        rng = random.Random(4)
        pairs = [
            (random_real_rooted(rng, 6, standard=False), random_interval_rooted(rng, 5))
            for _ in range(20)
        ]
        pairs += [
            (random_real_rooted(rng, 6, standard=False), ZERO),
            (P(1, 0, 1), P(2, -1, 3)),
            (P(-1, 0, 0, 1), P(5, 0, 1)),
            (ZERO, P(1, 0, 1)),
        ]
        for f, h in pairs:
            scan = max(
                (n for n in range(len(f.coeffs)) if diamond(f.derivative(n), h)),
                default=NEG_INF,
            )
            assert d_phi_diamond(f, h) == scan == (NEG_INF if h.is_zero else f.degree)


class TestAplusMembership:
    def test_simple_rooted_pair_is_member(self):
        f = from_roots([-2, -3])
        h = P(Fraction(1, 2), 1)
        report = aplus_check_diamond(f, h, xi_samples=(Fraction(-2), Fraction(1)))
        assert report.member
        assert report.branch == "graded"
        assert report.degree_bound == 2
        assert report.standard_degree_chain
        assert report.derivative_images_coprime
        assert report.top_pair_strictly_interlaces
        assert report.samples_real_rooted

    def test_constant_branch(self):
        report = aplus_check_diamond(P(5), P(Fraction(1, 2), 1))
        assert report.member and report.branch == "constant"

    def test_vanishing_branch(self):
        report = aplus_check_diamond(ZERO, P(Fraction(1, 2), 1))
        assert report.member and report.branch == "vanishing"

    def test_double_root_report_is_descriptive(self):
        report = aplus_check_diamond(from_roots([-1, -1]), P(Fraction(1, 2), 1))
        assert report.branch == "graded"  # fields filled either way
        assert report.degree_bound == 2

    def test_nonstandard_multiplier_rejected(self):
        with pytest.raises(PreconditionFailedError):
            aplus_check_diamond(P(0, 1), P(Fraction(1, 2), -1))

    def test_multiplier_roots_must_be_interior(self):
        with pytest.raises(PreconditionFailedError):
            aplus_check_diamond(P(0, 1), P(0, 1))  # root at 0 not in (-1, 0)

    def test_multiple_root_multiplier_rejected(self):
        h = from_roots([Fraction(-1, 2), Fraction(-1, 2)])
        with pytest.raises(PreconditionFailedError):
            aplus_check_diamond(P(0, 1), h)


class TestClosureSpotChecks:
    def test_diamond_closure_small(self):
        rng = random.Random(6)
        from realroots import roots_in_interval

        for _ in range(20):
            f = random_interval_rooted(rng, 4)
            h = random_interval_rooted(rng, 4)
            assert roots_in_interval(diamond(f, h), Fraction(-1), Fraction(0))

    def test_alt_diamond_closure_small(self):
        rng = random.Random(7)
        from realroots import roots_in_interval

        for _ in range(20):
            f = random_interval_rooted(rng, 4)
            h = random_interval_rooted(rng, 4)
            assert roots_in_interval(alt_diamond(f, h), Fraction(-1), Fraction(0))
