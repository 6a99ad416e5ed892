"""Exact decisions about how the real roots of two polynomials interleave.

Two nonzero real-rooted polynomials with sorted root multisets
a_1 <= ... <= a_d (first argument) and b_1 <= ... <= b_e (second) are

  * mutually alternating when d == e and the merged chain
    a_1 <= b_1 <= a_2 <= ... <= a_d <= b_d holds (in one of the two
    argument orders), and
  * in the interlacing relation, "second interlaces first", when
    d == e + 1 and a_1 <= b_1 <= a_2 <= ... <= b_{d-1} <= a_d.

Strict variants require every inequality to be strict.  A verdict reads one
signed remainder sequence of the pair, larger degree f first: V(-inf) -
V(+inf), from leading signs and degrees, is the Cauchy index I of g/f, and
the last entry d is gcd(f, g).  By Hermite-Kakeya-Obreschkoff, f/d and g/d
have real, simple, strictly interleaving roots iff |I| = deg f - deg d; the
pair then interleaves weakly iff d is real-rooted, strictly iff d is
constant, and for equal degrees the sign of I says whose roots come first.
Roots are located only for the witness of a failed verdict, by one
isolation of f*g.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionFailedError, ZeroPolynomialError
from .polynomial import Polynomial, _remainder_sequence
from .roots import (
    INF,
    NEG_INF,
    RootLocation,
    Rootedness,
    _multiplicity_at,
    _rootedness,
    _variations,
    is_real_rooted,
    isolate_roots,
    yun_decomposition,
)


class Relation(Enum):
    STRICTLY_ALTERNATE = "strictly_alternate"
    ALTERNATE = "alternate"
    STRICTLY_INTERLACES = "strictly_interlaces"
    INTERLACES = "interlaces"
    NONE = "none"


_STRICT_OF = {
    Relation.ALTERNATE: Relation.STRICTLY_ALTERNATE,
    Relation.INTERLACES: Relation.STRICTLY_INTERLACES,
}


@dataclass(frozen=True)
class InterlaceVerdict:
    """Outcome of an interleaving decision.

    relation is stated for the argument pair as given when swapped is False;
    swapped means the relation holds with the two arguments exchanged (for
    the interlacing relations: the first argument interlaces the second).
    witness carries a violating pair of root locations when a chain
    inequality failed: in the chain with the larger-degree input's roots
    first, and with the second input's roots first for equal degrees.
    """

    relation: Relation
    swapped: bool = False
    witness: tuple[RootLocation, RootLocation] | None = None
    reason: str = ""

    @property
    def holds(self) -> bool:
        return self.relation is not Relation.NONE

    @property
    def strict(self) -> bool:
        return self.relation in (
            Relation.STRICTLY_ALTERNATE,
            Relation.STRICTLY_INTERLACES,
        )


@dataclass(frozen=True)
class _Profile:
    """Merged root data: locations in increasing order, with multiplicities
    in f*g, and for each the multiplicity in the first and in the second."""

    locations: tuple[RootLocation, ...]
    mult_first: tuple[int, ...]
    mult_second: tuple[int, ...]


def merged_profile(f: Polynomial, g: Polynomial) -> _Profile:
    """Locate the union of the real roots of f and g with per-input
    multiplicities.

    Locations come from one isolation of f*g, which isolates its square-free
    part, so the ordering and every equality between an f-root and a g-root
    is exact.  Interval endpoints are roots of neither input.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("root profile of the zero polynomial")
    locations = isolate_roots(f * g)
    ff = [(h.int_coeffs(), m) for h, m in yun_decomposition(f)]
    gf = [(h.int_coeffs(), m) for h, m in yun_decomposition(g)]
    mf = tuple(_multiplicity_at(ff, loc.lo, loc.hi) for loc in locations)
    mg = tuple(_multiplicity_at(gf, loc.lo, loc.hi) for loc in locations)
    return _Profile(tuple(locations), mf, mg)


def _chain_violation(
    a: Sequence[int], b: Sequence[int], strict: bool
) -> tuple[int, int, str] | None:
    """Check a_1 <= b_1 <= a_2 <= ... over location indices.

    Expects len(a) == len(b) or len(a) == len(b) + 1; returns a violating
    (a-index, b-index, description) or None when the chain holds.
    """
    for k, (i, j) in enumerate(zip(a, b)):
        if i > j or (strict and i == j):
            return i, j, f"root {k + 1} of the larger multiset vs root {k + 1}"
    for k, (j, i) in enumerate(zip(b, a[1:])):
        if j > i or (strict and j == i):
            return i, j, f"root {k + 1} of the smaller multiset vs root {k + 2}"
    return None


def _check_order(
    profile: _Profile, first_is_a: bool, strict: bool
) -> tuple[bool, tuple[RootLocation, RootLocation] | None, str]:
    """Decide the merged chain with the a-role given to the first or second
    input; works for both the equal-degree and the degree-step case."""
    ma = profile.mult_first if first_is_a else profile.mult_second
    mb = profile.mult_second if first_is_a else profile.mult_first
    # each sorted root multiset as a list of location indices
    a, b = ([i for i, m in enumerate(ms) for _ in range(m)] for ms in (ma, mb))
    hit = _chain_violation(a, b, strict)
    if hit is None:
        return True, None, ""
    i, j, what = hit
    # profile locations carry multiplicities in f*g; a witness reports the
    # multiplicity each root has in its own input
    witness = (
        replace(profile.locations[i], multiplicity=ma[i]),
        replace(profile.locations[j], multiplicity=mb[j]),
    )
    return False, witness, what


def _sequence_verdict(f: Polynomial, g: Polynomial) -> tuple[bool, bool, int]:
    """(weak, strict, I) for deg f >= deg g, read from one remainder sequence
    of (f, g): the index I = V(-inf) - V(+inf) and the gcd d, its last entry.
    """
    seq = _remainder_sequence(f.int_coeffs(), g.int_coeffs())
    index = _variations(seq, NEG_INF) - _variations(seq, INF)
    d = seq[-1]
    weak = (
        abs(index) == len(seq[0]) - len(d)
        and _rootedness(d) is not Rootedness.NOT_REAL_ROOTED
    )
    return weak, weak and len(d) == 1, index


def alternates(f: Polynomial, g: Polynomial) -> InterlaceVerdict:
    """Classify how the root multisets of f and g interleave.

    Equal degrees are classified as (strictly) alternating, a degree gap of
    one as (strict) interlacing of the lower-degree input, and anything else
    (or a non-real-rooted input) as no relation.  The verdict reports the
    orientation that holds; when both hold (f a multiple of g) the unswapped
    one is preferred.  Roots are located only when no relation holds, to
    report a violated chain inequality as the witness.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("interleaving of the zero polynomial")
    if is_real_rooted(f) is Rootedness.NOT_REAL_ROOTED:
        return InterlaceVerdict(Relation.NONE, reason="first input is not real-rooted")
    if is_real_rooted(g) is Rootedness.NOT_REAL_ROOTED:
        return InterlaceVerdict(Relation.NONE, reason="second input is not real-rooted")
    df, dg = int(f.degree), int(g.degree)
    if abs(df - dg) > 1:
        return InterlaceVerdict(Relation.NONE, reason="degrees differ by more than one")
    weak, strict, index = _sequence_verdict(f, g) if df >= dg else _sequence_verdict(g, f)
    if weak:
        base = Relation.ALTERNATE if df == dg else Relation.INTERLACES
        # equal degrees: I has the sign of lc f * lc g iff g's roots come first
        swapped = index * f.leading * g.leading > 0 if df == dg else df < dg
        return InterlaceVerdict(_STRICT_OF[base] if strict else base, swapped=swapped)
    # no relation: locate the roots for a witness, reading the chain with f's
    # roots first when f has the larger degree and g's roots first otherwise
    _, witness, reason = _check_order(merged_profile(f, g), df > dg, strict=False)
    return InterlaceVerdict(
        Relation.NONE, witness=witness, reason=f"root ordering violated: {reason}"
    )


def interlaces(g: Polynomial, f: Polynomial, strict: bool = False) -> bool:
    """True iff deg f = deg g + 1, both real-rooted, and g's sorted root
    multiset (weakly) separates f's; strictly when strict is set.  No root
    is located: the Cauchy index of one remainder sequence decides."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("interlacing test on the zero polynomial")
    if f.degree != g.degree + 1:
        return False
    weak, strictly, _ = _sequence_verdict(f, g)
    return strictly if strict else weak


def chain_check(polys: Sequence[Polynomial]) -> bool:
    """True iff each consecutive pair strictly interlaces: p_i strictly
    below p_{i+1} with one degree step between them."""
    if not polys:
        raise ValueError("empty chain")
    for p in polys:
        if p.is_zero:
            raise ZeroPolynomialError("chain contains the zero polynomial")
    return all(
        interlaces(lower, upper, strict=True)
        for lower, upper in zip(polys, polys[1:])
    )


@dataclass(frozen=True)
class ProbeFailure:
    alpha: Fraction
    beta: Fraction
    verdict: str


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of sampling random combinations of an alternating pair."""

    samples_run: int
    skipped: int
    strict: bool
    failure: ProbeFailure | None

    @property
    def passed(self) -> bool:
        return self.failure is None


def obreschkoff_probe(
    f: Polynomial, g: Polynomial, samples: int, rng_seed: int
) -> ProbeReport:
    """Sample combinations a*f + b*g of an alternating pair and verify each
    is real-rooted (simple-rooted when the pair strictly alternates).

    Only the forward implication of the combination characterization is
    testable by sampling; the converse would quantify over all (a, b).
    Combinations that collapse to the zero polynomial are skipped.
    """
    verdict = alternates(f, g)
    if not verdict.holds:
        raise PreconditionFailedError(
            f"inputs do not alternate: {verdict.reason or verdict.relation.value}"
        )
    strict = verdict.strict
    rng = random.Random(rng_seed)
    run = 0
    skipped = 0
    while run < samples:
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        beta = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        combo = f * alpha + g * beta
        if combo.is_zero:
            skipped += 1
            continue
        run += 1
        rooted = is_real_rooted(combo)
        bad = (
            rooted is Rootedness.NOT_REAL_ROOTED
            if not strict
            else rooted is not Rootedness.REAL_SIMPLE
        )
        if bad:
            return ProbeReport(run, skipped, strict, ProbeFailure(alpha, beta, rooted.value))
    return ProbeReport(run, skipped, strict, None)
