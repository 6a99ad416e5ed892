"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored lowest degree first.  The zero polynomial has an
empty coefficient tuple and degree ``NEG_INF`` so that degree comparisons
like ``n > f.degree`` work without special cases.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import InputFormatError, ZeroPolynomialError

NEG_INF = float("-inf")

Scalar = Union[int, Fraction]


class Polynomial:
    """Immutable polynomial over the rationals.

    >>> f = Polynomial([0, 1, 1])        # x + x^2
    >>> f.degree
    2
    >>> f(Fraction(1, 2))
    Fraction(3, 4)
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int | float:
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading(self) -> Fraction:
        if not self._coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    @property
    def is_standard(self) -> bool:
        """Nonzero with positive leading coefficient."""
        return bool(self._coeffs) and self._coeffs[-1] > 0

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    @property
    def trailing_order(self) -> int | float:
        """Smallest k with a nonzero x^k coefficient (NEG_INF for zero)."""
        for k, c in enumerate(self._coeffs):
            if c != 0:
                return k
        return NEG_INF

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _coerce(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return _coerce(other) - self

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self._coeffs])
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Polynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroPolynomialError("division by the zero polynomial")
        if self.degree < other.degree:
            return Polynomial(), self
        rem = list(self._coeffs)
        dq = len(rem) - len(other._coeffs)
        quo = [Fraction(0)] * (dq + 1)
        lead = other._coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(other._coeffs) - 1] / lead
            quo[k] = c
            if c != 0:
                for j, oc in enumerate(other._coeffs):
                    rem[k + j] -= c * oc
        return Polynomial(quo), Polynomial(rem)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- calculus and evaluation -----------------------------------------

    def derivative(self, order: int = 1) -> "Polynomial":
        if order < 0:
            raise ValueError("negative derivative order")
        cs = self._coeffs
        for _ in range(order):
            cs = tuple(k * c for k, c in enumerate(cs) if k > 0)
            if not cs:
                break
        return Polynomial(cs)

    def evaluate(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    __call__ = evaluate

    def translate(self, shift: Scalar) -> "Polynomial":
        """Return f(x + shift), expanded exactly."""
        shift = Fraction(shift)
        if shift == 0 or self.is_zero:
            return self
        # Horner in the shifted variable: fold highest coefficients first.
        acc = Polynomial()
        mult = Polynomial([shift, 1])
        for c in reversed(self._coeffs):
            acc = acc * mult + c
        return acc

    # -- normal forms -----------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self == c * (primitive integer polynomial)."""
        if self.is_zero:
            return Fraction(0)
        num = 0
        den = 1
        for c in self._coeffs:
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "Polynomial":
        """self / content(): coprime integer coefficients, sign preserved."""
        return Polynomial(self.int_coeffs())

    def monic(self) -> "Polynomial":
        return self * (1 / self.leading)

    def int_coeffs(self) -> list[int]:
        """The coprime integer coefficients of the one primitive positive
        multiple of self ([] for zero): denominators cleared by their lcm,
        then the numerators divided by their gcd."""
        nums, _ = _cleared(self)
        g = math.gcd(*nums)
        return [n // g for n in nums] if g > 1 else nums

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self._coeffs]})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = abs(c)
                coeff = "" if mag == 1 else f"{mag}*"
                term = f"{coeff}x" if k == 1 else f"{coeff}x^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _cleared(f: Polynomial) -> tuple[list[int], int]:
    """(D * f's coefficients as ints, D), D the lcm of f's denominators."""
    den = math.lcm(*(c.denominator for c in f.coeffs))
    return [c.numerator * (den // c.denominator) for c in f.coeffs], den


def _coerce(value: "Polynomial | Scalar") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial([value])


ZERO = Polynomial()
ONE = Polynomial([1])
X = Polynomial([0, 1])


def constant(c: Scalar) -> Polynomial:
    return Polynomial([c])


def from_roots(roots: Iterable[Scalar], lead: Scalar = 1) -> Polynomial:
    """Monic-times-lead product of (x - r) over the given roots."""
    f = Polynomial([lead])
    for r in roots:
        f = f * Polynomial([-Fraction(r), 1])
    return f


def _remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """Signed remainder sequence a, b, ... of integer coefficient lists.

    Lists are lowest degree first, [] is zero.  Each next entry is minus the
    pseudo-remainder of the two before it, taken with a positive multiplier
    and made primitive: a positive multiple of the classical -(p mod q), so
    sign-variation counts are the classical ones.  The sequence stops before
    the first zero remainder; its last entry is a gcd of a and b.
    """
    seq = [a]
    while b:
        seq.append(b)
        r = list(seq[-2])
        lead, tail = b[-1], b[:-1]
        for k in range(len(r) - len(b), -1, -1):
            c = r.pop()
            if c:
                # m * r - c * x^k * b cancels the top term, with m > 0
                g = math.gcd(c, lead)
                m, c = lead // g, c // g
                if m < 0:
                    m, c = -m, -c
                if m != 1:
                    r = [m * x for x in r]
                for j, bj in enumerate(tail):
                    r[k + j] -= c * bj
        while r and r[-1] == 0:
            r.pop()
        content = math.gcd(*r) if r else 1
        b = [-x // content for x in r]
    return seq


def gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Polynomial gcd, normalised to primitive integer form with positive lead.

    gcd(f, 0) == primitive normalisation of f; gcd(0, 0) == 0.
    """
    if f.is_zero:
        f, g = g, f
    if f.is_zero:
        return f
    last = _remainder_sequence(f.int_coeffs(), g.int_coeffs())[-1]
    return Polynomial(last if last[-1] > 0 else [-c for c in last])


# -- text and JSON formats ------------------------------------------------


def parse_polynomial_text(text: str) -> Polynomial:
    """Parse whitespace-separated rational coefficients, lowest degree first.

    Tokens are integers like ``-3`` or fractions like ``5/4``.
    """
    tokens = text.split()
    coeffs = []
    for pos, tok in enumerate(tokens):
        try:
            coeffs.append(Fraction(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(
                f"bad coefficient {tok!r} at position {pos}: {exc}"
            ) from None
    return Polynomial(coeffs)


def format_polynomial_text(f: Polynomial) -> str:
    if f.is_zero:
        return "0"
    return " ".join(str(c) for c in f.coeffs)


def parse_polynomial_json(text: str) -> Polynomial:
    """Parse a JSON array of coefficient strings, lowest degree first."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise InputFormatError("polynomial JSON must be an array of strings")
    coeffs = []
    for pos, item in enumerate(data):
        if not isinstance(item, (str, int)):
            raise InputFormatError(f"coefficient at index {pos} must be a string")
        try:
            coeffs.append(Fraction(item))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(
                f"bad coefficient {item!r} at index {pos}: {exc}"
            ) from None
    return Polynomial(coeffs)


def format_polynomial_json(f: Polynomial) -> str:
    return json.dumps([str(c) for c in f.coeffs])
