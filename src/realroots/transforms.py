"""Polynomial transforms that preserve real-rootedness, and the membership
check for the class of inputs on which the derivative chain of the
product-with-h operator is guaranteed to interlace.

The two central products:

  coefficient product   f, g  ->  sum_k k! a_k b_k x^k
  derivative product    f, g  ->  sum_n (f^(n)/n!) (g^(n)/n!) x^n (x+1)^n

plus a variant of the second with a single n! denominator, operator
application f(d/dx)g, the k!-damping of coefficients, and the auxiliary
one-parameter polynomials used to reduce the derivative product to operator
application.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import PreconditionFailedError
from .interlacing import interlaces
from .polynomial import NEG_INF, Polynomial, _cleared, gcd
from .posets import _binomial_values, _differences
from .roots import (
    INF,
    Rootedness,
    count_roots,
    is_real_rooted,
    isolate_roots,
    roots_in_interval,
)


def schur_product(f: Polynomial, g: Polynomial) -> Polynomial:
    """Coefficient-wise product scaled by k!: sum_k k! a_k b_k x^k."""
    n = min(len(f.coeffs), len(g.coeffs))
    return Polynomial(
        factorial(k) * f.coeffs[k] * g.coeffs[k] for k in range(n)
    )


def diamond(f: Polynomial, g: Polynomial) -> Polynomial:
    """sum_n (f^(n)(x)/n!) (g^(n)(x)/n!) x^n (x+1)^n, expanded exactly.

    This equals e_operator(e_inverse(f) * e_inverse(g)), which is how it is
    computed: the product has degree deg f + deg g, so it is fixed by its
    values at 0..deg f + deg g, the pointwise products of the two value
    tables of e_inverse; its image is the forward-difference table of those
    products at 0.  The tables are taken on D_f * f and D_g * g, with D the
    lcm of an input's denominators, so they hold ints; diamond is bilinear,
    so the image is the integer difference table divided by D_f * D_g once.
    A zero input gives a table of zeros and the zero image.
    """
    (fs, df), (gs, dg) = _cleared(f), _cleared(g)
    m = len(fs) + len(gs) - 2
    fv, gv = _binomial_values(fs, m), _binomial_values(gs, m)
    return _differences([a * b for a, b in zip(fv, gv)], df * dg)


def alt_diamond(f: Polynomial, g: Polynomial) -> Polynomial:
    """sum_n (f^(n)(x) g^(n)(x)/n!) x^n (x+1)^n; a single n! denominator,
    and unlike the balanced version not symmetric-looking in its scaling
    across degrees (it is still symmetric in f and g)."""
    out = Polynomial()
    shifted = Polynomial([0, 1, 1])
    power = Polynomial([1])
    fn, gn = f, g
    n = 0
    while not fn.is_zero and not gn.is_zero:
        k = Fraction(1, factorial(n))
        out = out + fn * gn * power * k
        fn, gn = fn.derivative(), gn.derivative()
        power = power * shifted
        n += 1
    return out


def hermite_poulain(f: Polynomial, g: Polynomial) -> Polynomial:
    """Apply f as a constant-coefficient differential operator to g:
    sum_k a_k g^(k)."""
    out = Polynomial()
    gk = g
    for a in f.coeffs:
        if gk.is_zero:
            break
        out = out + gk * a
        gk = gk.derivative()
    return out


def laguerre_transform(f: Polynomial) -> Polynomial:
    """Damp coefficients: a_k -> a_k / k!."""
    return Polynomial(c / factorial(k) for k, c in enumerate(f.coeffs))


def h_xi(h: Polynomial, xi: Fraction) -> Polynomial:
    """sum_n h^(n)(xi)/(n! n!) * (xi(xi+1))^n x^n.

    Applying this polynomial as a differential operator to f(xi + z)
    reproduces the one-parameter slice of the derivative-product transform
    of f (see lphi_diamond).
    """
    xi = Fraction(xi)
    scale = xi * (xi + 1)
    coeffs = []
    hn = h
    n = 0
    spower = Fraction(1)
    while not hn.is_zero:
        coeffs.append(hn(xi) * spower / factorial(n) ** 2)
        hn = hn.derivative()
        n += 1
        spower *= scale
    return Polynomial(coeffs)


def _derivative_images(f: Polynomial, h: Polynomial) -> list[Polynomial]:
    """diamond(f^(n), h) for n = 0..deg f (none for f = 0).  Each is computed
    as in diamond, whose value table of h is a prefix of the one built here.
    D_f clears the denominators of every derivative, so the derivatives are
    taken on f's integer list and all images share the scale D_f * D_h."""
    (fs, df), (hs, dh) = _cleared(f), _cleared(h)
    h_values = _binomial_values(hs, len(fs) + len(hs) - 2)
    images = []
    while fs:
        m = len(fs) + len(hs) - 2
        products = [a * b for a, b in zip(_binomial_values(fs, m), h_values)]
        images.append(_differences(products, df * dh))
        fs = [k * c for k, c in enumerate(fs)][1:]
    return images


def lphi_diamond(f: Polynomial, h: Polynomial, xi: Fraction) -> Polynomial:
    """One-parameter slice of the derivative product: the polynomial in z

        sum_n (f^(n) diamond h)(xi) z^n / n!

    evaluated exactly at the rational point xi."""
    xi = Fraction(xi)
    return Polynomial(
        image(xi) / factorial(n) for n, image in enumerate(_derivative_images(f, h))
    )


def d_phi_diamond(f: Polynomial, h: Polynomial) -> int | float:
    """Largest n with f^(n) diamond h nonzero; the degree marker -inf when
    every term vanishes (f = 0 or h = 0).

    f^(n) diamond h is the e_operator image of e_inverse(f^(n)) * e_inverse(h).
    Both basis changes are linear bijections and Q[x] has no zero divisors,
    so the term is nonzero exactly when f^(n) and h are: for n <= deg f
    whenever h is nonzero.
    """
    return NEG_INF if h.is_zero else f.degree


@dataclass(frozen=True)
class AplusReport:
    """Verdicts for the membership conditions of the guaranteed-interlacing
    input class of the product-with-h operator.

    branch is one of "vanishing" (every image is zero), "constant" (degree
    bound 0; only the single image needs to be standard, real- and
    simple-rooted) or "graded" (degree bound >= 1; the four conditions below
    apply).  Condition fields are None when the branch makes them vacuous.
    """

    degree_bound: int | float
    branch: str
    constant_image_ok: bool | None = None
    standard_degree_chain: bool | None = None
    derivative_images_coprime: bool | None = None
    top_pair_strictly_interlaces: bool | None = None
    samples_real_rooted: bool | None = None
    xi_values: tuple[Fraction, ...] = ()
    failing_xi: Fraction | None = None

    @property
    def member(self) -> bool:
        checks = (
            self.constant_image_ok,
            self.standard_degree_chain,
            self.derivative_images_coprime,
            self.top_pair_strictly_interlaces,
            self.samples_real_rooted,
        )
        return all(c is not False for c in checks)


def _xi_sample_points(
    h: Polynomial, xi_samples: list[Fraction] | tuple[Fraction, ...]
) -> tuple[Fraction, ...]:
    """Caller-provided points, midpoints of h's root locations, and the two
    endpoints of the reference interval."""
    points = {Fraction(v) for v in xi_samples}
    points.update({Fraction(-1), Fraction(0)})
    if h.degree >= 1:
        for loc in isolate_roots(h):
            points.add(loc.point if loc.is_exact else (loc.lo + loc.hi) / 2)
    return tuple(sorted(points))


def aplus_check_diamond(
    f: Polynomial, h: Polynomial, xi_samples: list[Fraction] | tuple[Fraction, ...] = ()
) -> AplusReport:
    """Check membership conditions for f under the map g -> g diamond h.

    Requires h standard, simple-rooted with every root inside (-1, 0), and
    f standard or zero.  The last condition (real-rootedness of the one-parameter
    slice for every real xi) is sampled, not decided: the sample set is the
    caller's list plus midpoints of h's root locations plus {-1, 0}.
    """
    if h.is_zero or not h.is_standard:
        raise PreconditionFailedError("h must be standard (positive leading coefficient)")
    if is_real_rooted(h) is not Rootedness.REAL_SIMPLE:
        raise PreconditionFailedError("h must be simple-rooted")
    if h.degree >= 1 and not roots_in_interval(h, Fraction(-1), Fraction(0), closed=False):
        raise PreconditionFailedError("h must have all roots inside (-1, 0)")
    if not f.is_zero and not f.is_standard:
        raise PreconditionFailedError("f must be standard (positive leading coefficient)")

    d = d_phi_diamond(f, h)
    if d == NEG_INF:
        return AplusReport(degree_bound=d, branch="vanishing")
    d = int(d)
    images = _derivative_images(f, h)
    if d == 0:
        ok = (
            images[0].is_standard
            and is_real_rooted(images[0]) is Rootedness.REAL_SIMPLE
        )
        return AplusReport(
            degree_bound=0,
            branch="constant",
            constant_image_ok=ok,
        )

    chain_ok = all(p.is_standard for p in images) and all(
        images[i - 1].degree == images[i].degree + 1 for i in range(1, d + 1)
    )
    common = gcd(images[0], images[1])
    coprime_ok = common.degree < 1 or count_roots(common, -INF, INF) == 0
    top_ok = interlaces(images[d], images[d - 1], strict=True)

    xis = _xi_sample_points(h, xi_samples)
    samples_ok = True
    failing = None
    for xi in xis:
        slice_poly = lphi_diamond(f, h, xi)
        if slice_poly.is_zero:
            continue
        if is_real_rooted(slice_poly) is Rootedness.NOT_REAL_ROOTED:
            samples_ok = False
            failing = xi
            break
    return AplusReport(
        degree_bound=d,
        branch="graded",
        standard_degree_chain=chain_ok,
        derivative_images_coprime=coprime_ok,
        top_pair_strictly_interlaces=top_ok,
        samples_real_rooted=samples_ok,
        xi_values=xis,
        failing_xi=failing,
    )
